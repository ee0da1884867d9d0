// Tests for the plan-driven API: ParsePlan/String round-trips, the
// Plan⇄Config mapping, registry coverage, and the correctness of the
// plan-only capabilities — the data×pipeline hybrid, momentum,
// per-iteration hooks, and the footnote-2 reduce-scatter backward.
package dist_test

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"paradl/internal/cluster"
	"paradl/internal/core"
	"paradl/internal/dist"
	"paradl/internal/model"
	"paradl/internal/nn"
	"paradl/internal/profile"
)

// planWidths returns representative valid plans for one strategy.
func planWidths(s core.Strategy) []dist.Plan {
	switch {
	case s == core.Serial:
		return []dist.Plan{{Strategy: s, P1: 1, P2: 1}}
	case s == core.Data:
		return []dist.Plan{{Strategy: s, P1: 1, P2: 1}, {Strategy: s, P1: 2, P2: 1}, {Strategy: s, P1: 7, P2: 1}}
	case s == core.DataFilter, s == core.DataSpatial, s == core.DataPipeline:
		return []dist.Plan{{Strategy: s, P1: 1, P2: 1}, {Strategy: s, P1: 4, P2: 2}, {Strategy: s, P1: 2, P2: 3}}
	default:
		return []dist.Plan{{Strategy: s, P1: 1, P2: 1}, {Strategy: s, P1: 1, P2: 2}, {Strategy: s, P1: 1, P2: 5}}
	}
}

// TestPlanRoundTripParity: ParsePlan(p.String()) == p for every
// registered strategy at several widths — the property that lets plan
// strings travel through CLIs and configs losslessly.
func TestPlanRoundTripParity(t *testing.T) {
	for _, s := range dist.Strategies() {
		for _, pl := range planWidths(s) {
			str := pl.String()
			got, err := dist.ParsePlan(str)
			if err != nil {
				t.Fatalf("ParsePlan(%q): %v", str, err)
			}
			if got != pl {
				t.Fatalf("round trip %q: got %+v, want %+v", str, got, pl)
			}
			if got.String() != str {
				t.Fatalf("re-render %q: got %q", str, got.String())
			}
		}
	}
	// Long spellings parse to the same plans as the short ones.
	long, err := dist.ParsePlan("data+filter:4x2")
	if err != nil || long != (dist.Plan{Strategy: core.DataFilter, P1: 4, P2: 2}) {
		t.Fatalf("long spelling: %+v, %v", long, err)
	}
}

// TestPlanConfigRoundTrip pins the one Plan→Config mapping against its
// inverse, through the one Config constructor: for every plan the sweep
// enumerates up to p=16, projecting pl.Apply(core.NewConfig(…, p)) and
// mapping the projection back yields pl again — so the
// measured-vs-projected join and the planner service price exactly the
// grid the runtime executes, on the profile of the batch each PE sees.
func TestPlanConfigRoundTrip(t *testing.T) {
	m, sys := model.ResNet50(), cluster.Default()
	dev := profile.NewDevice(sys.GPU)
	const d, b = 1 << 20, 512
	var memo core.ProfileMemo
	for p := 1; p <= 16; p++ {
		base := core.NewConfig(m, sys, d, b, p, 0, &memo)
		if want := profile.ProfileModel(dev, m, b/p); !reflect.DeepEqual(base.Times, want) {
			t.Fatalf("p=%d: NewConfig did not profile at per-PE batch B/P = %d", p, b/p)
		}
		if again := core.NewConfig(m, sys, d, b, p, 0, &memo); again.Times != base.Times {
			t.Fatalf("p=%d: the memo re-profiled an identical (system, model, batch)", p)
		}
		wire, err := core.ConfigRef{Model: m.Name, D: d, B: b, P: p}.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		if wire.Ref() != base.Ref() || !reflect.DeepEqual(wire.Times, base.Times) {
			t.Fatalf("p=%d: ConfigRef.Resolve and NewConfig disagree: %+v vs %+v", p, wire.Ref(), base.Ref())
		}
		for _, pl := range dist.SweepPlans(p) {
			cfg := pl.Apply(base)
			if cfg.P != p {
				t.Fatalf("%s: Apply set P=%d, want %d", pl, cfg.P, p)
			}
			pr, err := core.Project(cfg, pl.Strategy)
			if err != nil {
				t.Fatalf("%s: %v", pl, err)
			}
			if got := dist.PlanFromProjection(pr); got.Validate() != nil || got.String() != pl.String() {
				t.Fatalf("PlanFromProjection(Project(%s.Apply(cfg))) = %+v", pl, got)
			}
		}
	}
	// The default profiling batch never drops below one sample, and an
	// explicit one wins over B/P.
	if got := core.NewConfig(m, sys, d, 4, 16, 0, nil); !reflect.DeepEqual(got.Times, profile.ProfileModel(dev, m, 1)) {
		t.Fatal("B < P must profile at one sample per PE")
	}
	if got := core.NewConfig(m, sys, d, b, 16, 8, nil); !reflect.DeepEqual(got.Times, profile.ProfileModel(dev, m, 8)) {
		t.Fatal("an explicit profiling batch must win over B/P")
	}
}

// TestStrategiesMatchRegistry: the curated Strategies() order and the
// registry key set never drift apart — a strategy added to one must be
// added to the other, or the round-trip property test above would
// silently skip it.
func TestStrategiesMatchRegistry(t *testing.T) {
	listed := dist.Strategies()
	keys := dist.RegistryStrategiesForTest()
	if len(listed) != len(keys) {
		t.Fatalf("Strategies() lists %d strategies, registry has %d", len(listed), len(keys))
	}
	seen := map[core.Strategy]bool{}
	for _, s := range listed {
		if seen[s] {
			t.Fatalf("Strategies() lists %v twice", s)
		}
		seen[s] = true
	}
	for _, s := range keys {
		if !seen[s] {
			t.Fatalf("registry strategy %v missing from Strategies()", s)
		}
	}
}

func TestParsePlanRejectsInvalid(t *testing.T) {
	for _, s := range []string{
		"",                         // no strategy
		"quantum:2",                // unknown strategy
		"df:3x0",                   // zero grid axis
		"df:0x3",                   // zero grid axis
		"dp:2x-1",                  // negative axis
		"df:4",                     // hybrid without explicit grid
		"data:2x2",                 // pure strategy with a grid
		"serial:2",                 // serial wider than 1
		"data:0",                   // zero width
		"data:x",                   // not a number
		"data:2.5",                 // not an integer
		"ds:2x2x2",                 // malformed grid
		"pipeline:],",              // garbage width
		"df:4294967296x4294967296", // P1·P2 wraps to 0
	} {
		if pl, err := dist.ParsePlan(s); err == nil {
			t.Fatalf("ParsePlan(%q) = %+v, want error", s, pl)
		}
	}
	// Hand-built invalid plans fail Validate and Run.
	m := model.Tiny3D()
	batches := toyBatches(t, m, 1, 2)
	for _, pl := range []dist.Plan{
		{Strategy: core.Strategy(99), P1: 1, P2: 1},           // unregistered
		{Strategy: core.Data, P1: 0, P2: 1},                   // explicit zero width
		{Strategy: core.Data, P1: 2, P2: 3},                   // data width on the wrong axis
		{Strategy: core.Filter, P1: 2, P2: 2},                 // filter needs P1=1
		{Strategy: core.DataFilter, P1: -2, P2: 2},            // negative axis
		{Strategy: core.DataFilter, P1: 1 << 32, P2: 1 << 32}, // P1·P2 overflows int
	} {
		if err := pl.Validate(); err == nil {
			t.Fatalf("Validate(%+v) must fail", pl)
		}
		if _, err := dist.Run(m, batches, pl); err == nil {
			t.Fatalf("Run(%+v) must fail", pl)
		}
	}
}

// TestDataPipelineParity is the dp acceptance criterion: GPipe stage
// groups under segmented gradient exchange reproduce sequential SGD at
// ≤1e-6 on the tiny zoo for p1×p2 ∈ {2×2, 2×3}.
func TestDataPipelineParity(t *testing.T) {
	for _, m := range []*nn.Model{model.TinyCNNNoBN(), model.Tiny3D()} {
		batches := toyBatches(t, m, 4, 4)
		seq := serial(t, m, batches)
		for _, grid := range [][2]int{{2, 2}, {2, 3}} {
			pl := dist.Plan{Strategy: core.DataPipeline, P1: grid[0], P2: grid[1]}
			got, err := dist.Run(m, batches, pl, dist.WithSeed(seed), dist.WithLR(lr))
			assertParity(t, seq, got, err)
			if got.P1 != grid[0] || got.P2 != grid[1] || got.P != grid[0]*grid[1] {
				t.Fatalf("%s %v: grid %d=%d×%d", m.Name, pl, got.P, got.P1, got.P2)
			}
		}
	}
}

// TestDataPipelineUnevenParity: remainder-bearing microbatches and
// group shards on the dp grid (batch 5 over 2 groups → shards 3,2;
// shard 3 over 3 stages → microbatches 1,1,1).
func TestDataPipelineUnevenParity(t *testing.T) {
	m := model.Tiny3D()
	batches := toyBatches(t, m, 3, 5)
	seq := serial(t, m, batches)
	got, err := dist.Run(m, batches, dist.Plan{Strategy: core.DataPipeline, P1: 2, P2: 3},
		dist.WithSeed(seed), dist.WithLR(lr))
	assertParity(t, seq, got, err)
}

// TestDataPipelineDegenerateEdge: pure pipeline is the p1=1 edge of the
// dp grid, bit-for-bit.
func TestDataPipelineDegenerateEdge(t *testing.T) {
	m := model.Tiny3D()
	batches := toyBatches(t, m, 3, 4)
	pure, err := run(m, batches, dist.Plan{Strategy: core.Pipeline, P2: 3})
	if err != nil {
		t.Fatal(err)
	}
	edge, err := dist.Run(m, batches, dist.Plan{Strategy: core.DataPipeline, P1: 1, P2: 3},
		dist.WithSeed(seed), dist.WithLR(lr))
	if err != nil {
		t.Fatal(err)
	}
	for i := range pure.Losses {
		if pure.Losses[i] != edge.Losses[i] {
			t.Fatalf("iter %d: pipeline %.17g != dp(1,3) %.17g", i, pure.Losses[i], edge.Losses[i])
		}
	}
}

func TestDataPipelineLimits(t *testing.T) {
	m := model.Tiny3D() // G = 7
	batches := toyBatches(t, m, 1, 2)
	if _, err := dist.Run(m, batches, dist.Plan{Strategy: core.DataPipeline, P1: 1, P2: 8}); err == nil {
		t.Fatal("dp: 8 stages for 7 layers must fail")
	}
	if _, err := dist.Run(m, batches, dist.Plan{Strategy: core.DataPipeline, P1: 3, P2: 2}); err == nil {
		t.Fatal("dp: batch 2 over 3 groups must fail")
	}
}

// TestInfeasibleErrorMarksPreSpawnRejections: every rejection drive
// makes before a PE exists — Table 3 widths, pipeline depth, a batch
// smaller than the group count — is a *dist.InfeasibleError carrying
// the engine's own message, which is what lets the measured-vs-projected
// join skip exactly those; a malformed plan and a PE that died in a
// started world are not.
func TestInfeasibleErrorMarksPreSpawnRejections(t *testing.T) {
	m := model.Tiny3D() // G = 7, spatial <= 2, filter/channel <= 4
	batches := toyBatches(t, m, 2, 2)
	for _, pl := range []dist.Plan{
		{Strategy: core.Spatial, P2: 8},
		{Strategy: core.Filter, P2: 8},
		{Strategy: core.Channel, P2: 8},
		{Strategy: core.Pipeline, P2: 8},
		{Strategy: core.DataSpatial, P1: 2, P2: 4},
		{Strategy: core.Data, P1: 3}, // batch 2 over 3 groups
	} {
		_, err := dist.Run(m, batches, pl)
		var inf *dist.InfeasibleError
		if !errors.As(err, &inf) {
			t.Fatalf("%s: got %v (%T), want *dist.InfeasibleError", pl, err, err)
		}
		if inf.Err == nil || err.Error() != inf.Err.Error() {
			t.Fatalf("%s: wrapper changed the message: %q vs cause %v", pl, err, inf.Err)
		}
	}
	var inf *dist.InfeasibleError
	if _, err := dist.Run(m, batches, dist.Plan{Strategy: core.Data}); err == nil || errors.As(err, &inf) {
		t.Fatalf("a malformed plan is a caller bug, not an infeasible width: %v", err)
	}
	_, err := dist.Run(m, batches, dist.Plan{Strategy: core.Data, P1: 2}, dist.WithFailAt(1, 1))
	var pf *dist.PEFailure
	if !errors.As(err, &pf) || errors.As(err, &inf) {
		t.Fatalf("a PE death in a started world must stay a *PEFailure, got %v", err)
	}
}

// TestFootnote2ReduceScatterParity: the filter-parallel backward's
// default reduce-scatter input-gradient exchange (footnote 2) matches
// both the sequential baseline and the full Allreduce path.
func TestFootnote2ReduceScatterParity(t *testing.T) {
	// tinycnn has conv→relu→conv and fc→relu→fc runs, so the
	// reduce-scatter precondition must hold somewhere.
	m := model.TinyCNN()
	if rs := dist.ScatterableForTest(m, 2); !anyTrue(rs) {
		t.Fatalf("footnote-2 path never eligible on %s: %v", m.Name, rs)
	}
	for _, tc := range []struct {
		name string
		pl   dist.Plan
	}{
		{"filter:2", dist.Plan{Strategy: core.Filter, P2: 2}},
		{"filter:3", dist.Plan{Strategy: core.Filter, P2: 3}},
		{"df:2x2", dist.Plan{Strategy: core.DataFilter, P1: 2, P2: 2}},
	} {
		batches := toyBatches(t, m, 3, 4)
		seq := serial(t, m, batches)
		rs, err := dist.Run(m, batches, tc.pl, dist.WithSeed(seed), dist.WithLR(lr))
		assertParity(t, seq, rs, err)
		ar, err := dist.Run(m, batches, tc.pl, dist.WithSeed(seed), dist.WithLR(lr),
			dist.WithInputGradAllReduce())
		assertParity(t, seq, ar, err)
		for i := range rs.Losses {
			if d := math.Abs(rs.Losses[i] - ar.Losses[i]); d > tol {
				t.Fatalf("%s iter %d: reduce-scatter %.12f vs allreduce %.12f (Δ %.3e)",
					tc.name, i, rs.Losses[i], ar.Losses[i], d)
			}
		}
	}
}

func anyTrue(bs []bool) bool {
	for _, b := range bs {
		if b {
			return true
		}
	}
	return false
}

// TestMomentumParity: heavy-ball SGD stays in value parity with the
// momentum sequential baseline under every strategy — each PE's
// velocity shard is the matching slice of the global velocity.
func TestMomentumParity(t *testing.T) {
	m := model.TinyCNNNoBN()
	batches := toyBatches(t, m, 4, 4)
	opts := []dist.Option{dist.WithSeed(seed), dist.WithLR(lr), dist.WithMomentum(0.9)}
	seq, err := dist.Run(m, batches, dist.Plan{Strategy: core.Serial}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	plain := serial(t, m, batches)
	same := true
	for i := range seq.Losses {
		if seq.Losses[i] != plain.Losses[i] {
			same = false
		}
	}
	if same {
		t.Fatal("momentum run identical to plain SGD: WithMomentum had no effect")
	}
	for _, pl := range []dist.Plan{
		{Strategy: core.Data, P1: 2},
		{Strategy: core.Spatial, P2: 2},
		{Strategy: core.Filter, P2: 2},
		{Strategy: core.Channel, P2: 2},
		{Strategy: core.Pipeline, P2: 2},
		{Strategy: core.DataFilter, P1: 2, P2: 2},
		{Strategy: core.DataSpatial, P1: 2, P2: 2},
		{Strategy: core.DataPipeline, P1: 2, P2: 2},
	} {
		got, err := dist.Run(m, batches, pl, opts...)
		assertParity(t, seq, got, err)
	}
}

// TestIterHook: the per-iteration callback reports exactly the loss
// series the Result records, in order.
func TestIterHook(t *testing.T) {
	m := model.Tiny3D()
	batches := toyBatches(t, m, 3, 4)
	for _, pl := range []dist.Plan{
		{Strategy: core.Serial},
		{Strategy: core.Data, P1: 2},
		{Strategy: core.DataPipeline, P1: 2, P2: 2},
	} {
		var iters []int
		var losses []float64
		res, err := dist.Run(m, batches, pl, dist.WithSeed(seed), dist.WithLR(lr),
			dist.WithIterHook(func(i int, loss float64) {
				iters = append(iters, i)
				losses = append(losses, loss)
			}))
		if err != nil {
			t.Fatalf("%v: %v", pl, err)
		}
		if len(losses) != len(res.Losses) {
			t.Fatalf("%v: hook fired %d times for %d iterations", pl, len(losses), len(res.Losses))
		}
		for i := range res.Losses {
			if iters[i] != i || losses[i] != res.Losses[i] {
				t.Fatalf("%v iter %d: hook (%d, %.17g) vs result %.17g", pl, i, iters[i], losses[i], res.Losses[i])
			}
		}
	}
}

// TestRunDefaults: Run works with no options (documented defaults) and
// fills the degenerate axis of hand-built pure plans.
func TestRunDefaults(t *testing.T) {
	m := model.Tiny3D()
	batches := toyBatches(t, m, 2, 4)
	res, err := dist.Run(m, batches, dist.Plan{Strategy: core.Data, P1: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 2 || res.P1 != 2 || res.P2 != 1 {
		t.Fatalf("grid %d=%d×%d, want 2=2×1", res.P, res.P1, res.P2)
	}
}

// SweepPlans invariants: every plan is valid, totals p, pure strategies
// appear exactly once, and hybrids cover every interior factorization
// of p (both orientations, e.g. 2x4 AND 4x2 at p=8).
func TestSweepPlansEnumeration(t *testing.T) {
	if got := dist.SweepPlans(1); len(got) != 1 || got[0].Strategy != core.Serial {
		t.Fatalf("dist.SweepPlans(1) = %v, want serial only", got)
	}
	for _, p := range []int{2, 3, 4, 6, 8, 12} {
		plans := dist.SweepPlans(p)
		seen := map[string]bool{}
		hybrids := 0
		for _, pl := range plans {
			if err := pl.Validate(); err != nil {
				t.Fatalf("p=%d: invalid sweep plan %v: %v", p, pl, err)
			}
			if pl.P() != p {
				t.Errorf("p=%d: plan %s totals %d", p, pl, pl.P())
			}
			if seen[pl.String()] {
				t.Errorf("p=%d: duplicate plan %s", p, pl)
			}
			seen[pl.String()] = true
			switch pl.Strategy {
			case core.DataFilter, core.DataSpatial, core.DataPipeline:
				hybrids++
				if pl.P1 < 2 || pl.P2 < 2 {
					t.Errorf("p=%d: non-interior hybrid %s in sweep", p, pl)
				}
			}
		}
		pure := []dist.Plan{
			{Strategy: core.Data, P1: p}, {Strategy: core.Spatial, P2: p},
			{Strategy: core.Filter, P2: p}, {Strategy: core.Channel, P2: p},
			{Strategy: core.Pipeline, P2: p},
		}
		for _, pp := range pure {
			if !seen[pp.String()] {
				t.Errorf("p=%d: pure plan %s missing", p, pp)
			}
		}
		// Interior divisor count d ⇒ 3·d hybrid plans.
		divisors := 0
		for d := 2; d <= p/2; d++ {
			if p%d == 0 {
				divisors++
			}
		}
		if hybrids != 3*divisors {
			t.Errorf("p=%d: %d hybrid plans, want %d", p, hybrids, 3*divisors)
		}
	}
}
