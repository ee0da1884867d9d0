package report

import (
	"fmt"
	"reflect"
	"testing"

	"paradl/internal/cluster"
	"paradl/internal/core"
	"paradl/internal/dist"
	"paradl/internal/measure"
	"paradl/internal/model"
	"paradl/internal/profile"
	"paradl/internal/workload"
)

// TestJoinMatchesDirectOracleAndSimulator is the differential pin on
// the one measured-vs-projected join: over the 16 committed PHASES
// cells and every sweep plan of width 2..4 on tinycnn-nobn, the
// projection and the simulator result a replayed candidate carries are
// field-for-field what core.Project and measure.Measure return for a
// config assembled here by hand — literal Config, own profile, own
// engine — so neither the constructor, the memo nor the shared helper
// can bend what a table row prices.
func TestJoinMatchesDirectOracleAndSimulator(t *testing.T) {
	e := NewEnv()
	scs := e.phaseScenarios()
	if len(scs) != 16 {
		t.Fatalf("the committed PHASES matrix has 16 cells, got %d", len(scs))
	}
	for p := 2; p <= 4; p++ {
		scs = append(scs, e.toyScenario(fmt.Sprintf("sweep-%d", p), runtimeModel, runtimeIters, true, dist.SweepPlans(p)...))
	}
	r, err := workload.NewReplayer(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs {
		res, err := r.Replay(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.ID, err)
		}
		if len(res.Skipped) != 0 {
			t.Fatalf("%s: every plan here is feasible, got skips %+v", sc.ID, res.Skipped)
		}
		m, err := model.ByName(sc.Model)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := cluster.ByName(sc.Cluster)
		if err != nil {
			t.Fatal(err)
		}
		direct := core.Config{
			Model: m, Sys: sys,
			Times: profile.ProfileModel(profile.NewDevice(sys.GPU), m, sc.Batch/sc.P),
			D:     int64(sc.Iters * sc.Batch), B: sc.Batch,
		}
		for _, c := range res.Candidates {
			pl, err := dist.ParsePlan(c.Plan)
			if err != nil {
				t.Fatal(err)
			}
			cfg := pl.Apply(direct)
			pr, err := core.Project(cfg, pl.Strategy)
			if err != nil {
				t.Fatalf("%s %s: %v", sc.ID, c.Plan, err)
			}
			got := c.Projection
			if got.Strategy != pr.Strategy || got.Config.Ref() != pr.Config.Ref() ||
				!reflect.DeepEqual(got.Config.Times, pr.Config.Times) ||
				got.Epoch != pr.Epoch || got.MemoryPerPE != pr.MemoryPerPE ||
				got.MaxPE != pr.MaxPE || got.Feasible != pr.Feasible || !reflect.DeepEqual(got.Notes, pr.Notes) {
				t.Errorf("%s %s: join projection %+v != direct %+v", sc.ID, c.Plan, got, pr)
			}
			sim, err := measure.Measure(measure.NewEngine(sys), cfg, pl.Strategy)
			if err != nil {
				t.Fatalf("%s %s: %v", sc.ID, c.Plan, err)
			}
			if c.Sim.Strategy != sim.Strategy || c.Sim.Config.Ref() != sim.Config.Ref() || c.Sim.Iter != sim.Iter {
				t.Errorf("%s %s: join simulator %+v != direct %+v", sc.ID, c.Plan, c.Sim.Iter, sim.Iter)
			}
			if c.OracleSec != pr.Iter().Total() || c.SimSec != sim.Iter.Total() || c.OracleFeasible != pr.Feasible {
				t.Errorf("%s %s: scalars (%g, %g, %v) drifted from their sources", sc.ID, c.Plan, c.OracleSec, c.SimSec, c.OracleFeasible)
			}
			if traced := c.Trace.PEs > 0; traced != sc.Trace {
				t.Errorf("%s %s: traced=%v, scenario asked %v", sc.ID, c.Plan, traced, sc.Trace)
			}
		}
	}
}

// TestArtefactCellsHoldASamplePerGroup: B < P1 is now an infeasibility
// on the oracle and an error on the simulator (the row's Limits), where
// ds and dp used to clamp the group batch to one sample — and no cell of
// Fig. 3/4/5, of the committed 60-scenario seed-1 scoreboard trace or of
// the PHASES matrix is below one sample per group, so no artefact moved.
func TestArtefactCellsHoldASamplePerGroup(t *testing.T) {
	e := NewEnv()
	check := func(id string, cfg core.Config, s core.Strategy) {
		t.Helper()
		if err := core.Validate(&cfg, s); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if g := core.Grid(cfg, s); g.B < g.P1 {
			t.Errorf("%s: %v has B=%d < P1=%d", id, s, g.B, g.P1)
		}
	}
	for _, name := range Fig3Models() {
		for _, pt := range fig3Grid() {
			b := pt.b
			if !pt.global {
				b *= pt.p
			}
			cfg := e.Config(name, pt.p, b, 1)
			cfg.P1, cfg.P2 = pt.p1, pt.p2
			check("fig3/"+name, cfg, pt.strategy)
		}
	}
	for _, p := range []int{4, 16, 64, 256, 512} {
		check("fig4/5", e.cosmoConfig(p), core.DataSpatial)
	}
	scs, err := workload.Generate(workload.GenSpec{Seed: 1, N: 60})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range append(scs, e.phaseScenarios()...) {
		m, err := model.ByName(sc.Model)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := cluster.ByName(sc.Cluster)
		if err != nil {
			t.Fatal(err)
		}
		base := core.NewConfig(m, sys, int64(sc.Iters*sc.Batch), sc.Batch, sc.P, 0, &e.profiles)
		for _, ps := range sc.Plans {
			pl, err := dist.ParsePlan(ps)
			if err != nil {
				t.Fatal(err)
			}
			check(sc.ID+"/"+ps, pl.Apply(base), pl.Strategy)
		}
	}
}
