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
