package measure

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"paradl/internal/cluster"
	"paradl/internal/core"
	"paradl/internal/model"
	"paradl/internal/strategy"
)

// zooCfg builds a validated config for a zoo model on the default
// machine, profiled at perPE samples.
func zooCfg(t *testing.T, memo *core.ProfileMemo, name string, s core.Strategy, b, p, p1, p2, segs, perPE int) core.Config {
	t.Helper()
	m, err := model.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.NewConfig(m, cluster.Default(), 1<<20, b, p, perPE, memo)
	cfg.P1, cfg.P2, cfg.Segments = p1, p2, segs
	if err := core.Validate(&cfg, s); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// The pure strategies are edges of their Table-3 row, not rows of their
// own: over every zoo model and a seeded set of (B, P, S, φ), a pure
// strategy and the same-shaped hybrid grid agree == on every projected
// phase, on memory, and on the simulator's schedule before the
// per-label framework efficiency. Spatial vs ds(1×P) differ in GE alone
// (flat ring vs the §5.3.1 leader hierarchy).
func TestPureStrategiesAreGridEdges(t *testing.T) {
	e := engine(t)
	var memo core.ProfileMemo
	rng := rand.New(rand.NewSource(22))
	edges := []struct {
		pure, grid core.Strategy
		onData     bool // the pure strategy's P PEs lie on the data axis
	}{
		{core.Serial, core.DataFilter, false},
		{core.Serial, core.DataSpatial, false},
		{core.Data, core.DataFilter, true},
		{core.Filter, core.DataFilter, false},
		{core.Spatial, core.DataSpatial, false},
		{core.Pipeline, core.DataPipeline, false},
	}
	for _, name := range model.Names() {
		for i := 0; i < 4; i++ {
			p := []int{2, 3, 4, 8}[rng.Intn(4)]
			b := p * (1 + rng.Intn(6))
			segs := []int{1, 2, 4}[rng.Intn(3)]
			phi := []float64{0, 0, 2.5}[rng.Intn(3)]
			for _, ed := range edges {
				p := p
				if ed.pure == core.Serial {
					p = 1
				}
				id := fmt.Sprintf("%s %v=%v B=%d P=%d S=%d φ=%g", name, ed.pure, ed.grid, b, p, segs, phi)
				p1, p2 := 1, p
				if ed.onData {
					p1, p2 = p, 1
				}
				pure := zooCfg(t, &memo, name, ed.pure, b, p, 0, 0, segs, 0)
				grid := zooCfg(t, &memo, name, ed.grid, b, p, p1, p2, segs, 0)
				pure.Phi, grid.Phi = phi, phi

				a, err := core.Project(pure, ed.pure)
				if err != nil {
					t.Fatal(err)
				}
				h, err := core.Project(grid, ed.grid)
				if err != nil {
					t.Fatal(err)
				}
				if ed.pure == core.Spatial {
					h.Epoch.GE = a.Epoch.GE
				}
				if a.Epoch != h.Epoch || a.MemoryPerPE != h.MemoryPerPE {
					t.Fatalf("%s: projected %+v / %g B, edge %+v / %g B", id, a.Epoch, a.MemoryPerPE, h.Epoch, h.MemoryPerPE)
				}

				ga, gh := e.grid(pure, ed.pure), e.grid(grid, ed.grid)
				if ga.Limits() != nil || gh.Limits() != nil {
					continue // beyond the model's limits: nothing to simulate
				}
				sa, sh := e.simulate(&ga), e.simulate(&gh)
				if ed.pure == core.Spatial {
					sh.GE = sa.GE
				}
				if sa != sh {
					t.Fatalf("%s: simulated %+v, edge %+v", id, sa, sh)
				}
			}
		}
	}
}

// volumes sums bytes × repeat per phase over a grid's Table-3 exchanges.
func volumes(g strategy.Grid) (v [strategy.PhaseGather + 1]float64) {
	for x := range g.Exchanges {
		if x.InTable3 {
			v[x.Phase] += x.Bytes * float64(x.Repeat)
		}
	}
	return v
}

// The oracle and the simulator walk ONE volume list: over the Fig. 3
// grid (report.fig3Grid's panels) the bytes Project prices and the bytes
// Measure puts on simnet are the same number per phase, although each
// side brings its own sample rounding and stage partition. What the
// simulator moves beyond Table 3 is only the exchanges marked so — the
// spatial Allgatherv before the replicated head.
func TestOracleAndSimulatorWalkTheSameVolumes(t *testing.T) {
	e := engine(t)
	var memo core.ProfileMemo
	type point struct {
		s         core.Strategy
		ps        []int
		b         int  // per GPU, or the global batch when global
		global    bool // strong scaling
		p2        int  // explicit hybrid depth (0: node-sized default)
		perPEOfBP bool // profiled at max(1, b/p) instead of b
	}
	grid := []point{
		{s: core.Data, ps: []int{16, 64, 256, 1024}, b: 32},
		{s: core.Spatial, ps: []int{4, 16, 64}, b: 8, global: true, perPEOfBP: true},
		{s: core.Filter, ps: []int{4, 16, 64}, b: 32, global: true},
		{s: core.Channel, ps: []int{4, 16, 64}, b: 32, global: true},
		{s: core.DataFilter, ps: []int{16, 64, 256, 1024}, b: 8},
		{s: core.DataSpatial, ps: []int{16, 64, 256, 1024}, b: 8},
		{s: core.Pipeline, ps: []int{2, 4}, b: 32, global: true, perPEOfBP: true},
		{s: core.DataPipeline, ps: []int{16, 64}, b: 8, p2: 4},
	}
	for _, name := range []string{"resnet50", "resnet152", "vgg16"} {
		for _, pt := range grid {
			for _, p := range pt.ps {
				b, perPE, p1 := pt.b, pt.b, 0
				if !pt.global {
					b = pt.b * p
				} else if pt.perPEOfBP {
					perPE = max(1, pt.b/p)
				}
				if pt.p2 > 0 {
					p1 = p / pt.p2
				}
				cfg := zooCfg(t, &memo, name, pt.s, b, p, p1, pt.p2, 0, perPE)
				oracle, sim := core.Grid(cfg, pt.s), e.grid(cfg, pt.s)
				if vo, vs := volumes(oracle), volumes(sim); vo != vs {
					t.Errorf("%s %v p=%d: oracle prices %v bytes per phase, simulator moves %v", name, pt.s, p, vo, vs)
				}
				extra := 0
				for x := range sim.Exchanges {
					if !x.InTable3 {
						extra++
						if x.Phase != strategy.PhaseGather || x.Kind != strategy.RingAllgather || !x.MPI {
							t.Errorf("%s %v p=%d: unnamed non-Table-3 exchange %+v", name, pt.s, p, x)
						}
					}
				}
				if spatial := sim.Family == strategy.Spatial; (extra == 1) != spatial || extra > 1 {
					t.Errorf("%s %v p=%d: %d non-Table-3 exchanges", name, pt.s, p, extra)
				}
			}
		}
	}
}

// B < P1 is decided once, by the row's Limits: the oracle reports the
// projection infeasible and names the limit, the simulator refuses —
// for every strategy with a data axis, ds included (it used to clamp the
// group batch to one sample on both sides).
func TestFewerSamplesThanGroupsDecidedOnce(t *testing.T) {
	e := engine(t)
	var memo core.ProfileMemo
	for _, s := range []core.Strategy{core.Data, core.DataFilter, core.DataSpatial, core.DataPipeline} {
		cfg := zooCfg(t, &memo, "resnet50", s, 4, 16, 8, 2, 0, 1)
		pr, err := core.Project(cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Feasible || len(pr.Notes) == 0 {
			t.Errorf("%v: B=4 over 8+ groups projected feasible=%v, notes %q", s, pr.Feasible, pr.Notes)
		}
		var lim *strategy.Limit
		if _, err := Measure(e, cfg, s); !errors.As(err, &lim) || lim.Name != "batch" {
			t.Errorf("%v: simulator returned %v, want the batch limit", s, err)
		}
		cfg.B = 16 // one sample per group (data: per PE) is enough
		if pr, err = core.Project(cfg, s); err != nil || !pr.Feasible {
			t.Errorf("%v: B=P projected %+v, %v", s, pr, err)
		}
		if _, err := Measure(e, cfg, s); err != nil {
			t.Errorf("%v: B=P simulated: %v", s, err)
		}
	}
}
