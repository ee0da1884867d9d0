// Value-parity tests: the §4.5.2 methodology. Every partitioned run
// must reproduce the sequential baseline's per-iteration losses within
// 1e-6 (in practice the runs agree to ~1e-12; the tolerance absorbs
// summation reassociation across PEs).
package dist_test

import (
	"math"
	"strings"
	"testing"

	"paradl/internal/core"
	"paradl/internal/data"
	"paradl/internal/dist"
	"paradl/internal/model"
	"paradl/internal/nn"
)

const (
	seed = 42
	lr   = 0.05
	tol  = 1e-6
)

func toyBatches(t *testing.T, m *nn.Model, iters, size int) []dist.Batch {
	t.Helper()
	ds := data.Toy(m, int64(iters*size))
	return ds.Batches(iters, size)
}

// run executes plan pl at the suite's seed and learning rate.
func run(m *nn.Model, batches []dist.Batch, pl dist.Plan) (*dist.Result, error) {
	return dist.Run(m, batches, pl, dist.WithSeed(seed), dist.WithLR(lr))
}

// serial runs the baseline every plan is held against.
func serial(t *testing.T, m *nn.Model, batches []dist.Batch) *dist.Result {
	t.Helper()
	res, err := run(m, batches, dist.Plan{Strategy: core.Serial})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// pureAt returns the five pure strategies' plans at width p.
func pureAt(p int) []dist.Plan {
	return []dist.Plan{
		{Strategy: core.Data, P1: p}, {Strategy: core.Spatial, P2: p}, {Strategy: core.Filter, P2: p},
		{Strategy: core.Channel, P2: p}, {Strategy: core.Pipeline, P2: p},
	}
}

func assertParity(t *testing.T, want *dist.Result, got *dist.Result, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Losses) != len(want.Losses) {
		t.Fatalf("%s: %d losses, want %d", got.Strategy, len(got.Losses), len(want.Losses))
	}
	for i := range want.Losses {
		if d := math.Abs(got.Losses[i] - want.Losses[i]); d > tol || math.IsNaN(d) {
			t.Fatalf("%s p=%d iter %d: loss %.12f vs sequential %.12f (Δ %.3e > %g)",
				got.Strategy, got.P, i, got.Losses[i], want.Losses[i], d, tol)
		}
	}
}

// TestSpatialMatchesSequentialTiny3D is the acceptance criterion of the
// runtime: 3-D spatial decomposition over 2 PEs reproduces sequential
// SGD losses on Tiny3D over 4 iterations.
func TestSpatialMatchesSequentialTiny3D(t *testing.T) {
	m := model.Tiny3D()
	batches := toyBatches(t, m, 4, 4)
	seq := serial(t, m, batches)
	got, err := run(m, batches, dist.Plan{Strategy: core.Spatial, P2: 2})
	assertParity(t, seq, got, err)
}

func TestDataMatchesSequentialTiny3D(t *testing.T) {
	m := model.Tiny3D()
	batches := toyBatches(t, m, 4, 4)
	seq := serial(t, m, batches)
	got, err := run(m, batches, dist.Plan{Strategy: core.Data, P1: 2})
	assertParity(t, seq, got, err)
}

// TestAllStrategiesMatchSequential runs every §3 strategy at p=2 on the
// BN-free tiny CNN (pipeline microbatching legitimately changes BN
// statistics) and demands value parity across 4 iterations.
func TestAllStrategiesMatchSequential(t *testing.T) {
	m := model.TinyCNNNoBN()
	batches := toyBatches(t, m, 4, 4)
	seq := serial(t, m, batches)
	for _, pl := range pureAt(2) {
		got, err := run(m, batches, pl)
		if err != nil {
			t.Fatalf("%s: %v", pl, err)
		}
		assertParity(t, seq, got, err)
	}
}

// TestSyncBNParity: with synchronized batch norm, data- and
// spatial-parallel runs match sequential SGD even on a BN model —
// the global-statistics semantics of §4.5.2.
func TestSyncBNParity(t *testing.T) {
	m := model.TinyCNN()
	batches := toyBatches(t, m, 3, 4)
	seq := serial(t, m, batches)
	gotData, err := run(m, batches, dist.Plan{Strategy: core.Data, P1: 2})
	assertParity(t, seq, gotData, err)
	gotSpatial, err := run(m, batches, dist.Plan{Strategy: core.Spatial, P2: 2})
	assertParity(t, seq, gotSpatial, err)
}

// TestHybridsMatchSequential is the §3.6 acceptance criterion: both
// hybrids on a 2×2 grid reproduce sequential SGD on the BN-free CNN and
// the 3-D (CosmoFlow-like) model over 4 iterations.
func TestHybridsMatchSequential(t *testing.T) {
	for _, m := range []*nn.Model{model.TinyCNNNoBN(), model.Tiny3D()} {
		batches := toyBatches(t, m, 4, 4)
		seq := serial(t, m, batches)
		df, err := run(m, batches, dist.Plan{Strategy: core.DataFilter, P1: 2, P2: 2})
		assertParity(t, seq, df, err)
		ds, err := run(m, batches, dist.Plan{Strategy: core.DataSpatial, P1: 2, P2: 2})
		assertParity(t, seq, ds, err)
		if df.P != 4 || df.P1 != 2 || df.P2 != 2 {
			t.Fatalf("%s: df grid %d=%d×%d, want 4=2×2", m.Name, df.P, df.P1, df.P2)
		}
	}
}

// TestHybridSyncBNParity: hybrids synchronize batch norm over the
// correct cover — segments for data+filter (one PE per group spans the
// global batch), the world for data+spatial — so even BN models match
// the sequential baseline.
func TestHybridSyncBNParity(t *testing.T) {
	m := model.TinyCNN()
	batches := toyBatches(t, m, 3, 4)
	seq := serial(t, m, batches)
	df, err := run(m, batches, dist.Plan{Strategy: core.DataFilter, P1: 2, P2: 2})
	assertParity(t, seq, df, err)
	ds, err := run(m, batches, dist.Plan{Strategy: core.DataSpatial, P1: 2, P2: 2})
	assertParity(t, seq, ds, err)
}

// TestHybridDegenerateEdges: the pure strategies are the p1=1 / p2=1
// edges of the grid and must agree with the hybrid entry points
// bit-for-bit, and serial is the Tensor grid's 1×1 corner: every
// width-1 Tensor plan must equal it bit for bit. The pure registry
// entries share the grid engines, so this is a determinism check plus a
// canary — it becomes load-bearing the day a pure strategy gets a
// specialized engine (e.g. for performance) and starts drifting from its
// grid edge. tinycnn has batch norm: at 1×1 its gradients are pushed to
// a singleton exchange, under df:2x1 and data:2 they are synchronized
// over a 2-PE segment and held; tinyresnet is a DAG.
func TestHybridDegenerateEdges(t *testing.T) {
	type edge struct {
		m            *nn.Model
		hybrid, pure string
	}
	edges := []edge{
		{model.Tiny3D(), "df:2x1", "data:2"},
		{model.Tiny3D(), "df:1x2", "filter:2"},
		{model.Tiny3D(), "ds:1x2", "spatial:2"},
		{model.TinyCNN(), "df:2x1", "data:2"},
	}
	for _, m := range []*nn.Model{model.TinyCNN(), model.TinyResNet()} {
		for _, corner := range []string{"data:1", "filter:1", "channel:1", "df:1x1"} {
			edges = append(edges, edge{m, corner, "serial"})
		}
	}
	for _, e := range edges {
		t.Run(e.m.Name+"/"+e.hybrid+"="+e.pure, func(t *testing.T) {
			batches := toyBatches(t, e.m, 3, 6)
			hybrid, hErr := run(e.m, batches, mustPlan(t, e.hybrid))
			pure, pErr := run(e.m, batches, mustPlan(t, e.pure))
			if hErr != nil || pErr != nil {
				t.Fatalf("%v / %v", hErr, pErr)
			}
			for i := range pure.Losses {
				if math.Float64bits(hybrid.Losses[i]) != math.Float64bits(pure.Losses[i]) {
					t.Fatalf("iter %d: %.17g != %.17g", i, hybrid.Losses[i], pure.Losses[i])
				}
			}
		})
	}
}

// TestHybridUnevenGrid: remainder-bearing shards on both grid axes —
// p1 not dividing the batch and p2 not dividing every filter count.
func TestHybridUnevenGrid(t *testing.T) {
	m := model.Tiny3D() // min F_l = 4, filters 4 and 8: p2=3 is uneven
	batches := toyBatches(t, m, 3, 5)
	seq := serial(t, m, batches)
	df, err := run(m, batches, dist.Plan{Strategy: core.DataFilter, P1: 2, P2: 3}) // batch 5 → 3,2
	assertParity(t, seq, df, err)
	ds, err := run(m, batches, dist.Plan{Strategy: core.DataSpatial, P1: 3, P2: 2}) // batch 5 → 2,2,1
	assertParity(t, seq, ds, err)

	// Synchronized BN over UNEVEN group shards: the count-weighted
	// statistics and n_g/B-scaled gradients must still combine to the
	// sequential arithmetic when the shards differ in size.
	bn := model.TinyCNN()
	bnBatches := toyBatches(t, bn, 3, 5) // batch 5 over 2 groups → 3,2
	bnSeq := serial(t, bn, bnBatches)
	bnDf, err := run(bn, bnBatches, dist.Plan{Strategy: core.DataFilter, P1: 2, P2: 2})
	assertParity(t, bnSeq, bnDf, err)
	bnDs, err := run(bn, bnBatches, dist.Plan{Strategy: core.DataSpatial, P1: 2, P2: 2})
	assertParity(t, bnSeq, bnDs, err)
}

// TestHybridScalingLimits: the Table 3 bounds hold per grid axis.
func TestHybridScalingLimits(t *testing.T) {
	m := model.Tiny3D()
	batches := toyBatches(t, m, 1, 2)
	if _, err := run(m, batches, dist.Plan{Strategy: core.DataFilter, P1: 3, P2: 2}); err == nil {
		t.Fatal("df: batch 2 over 3 groups must fail")
	}
	if _, err := run(m, batches, dist.Plan{Strategy: core.DataFilter, P1: 2, P2: 5}); err == nil {
		t.Fatal("df: p2=5 > min F_l=4 must fail")
	}
	if _, err := run(m, batches, dist.Plan{Strategy: core.DataSpatial, P1: 2, P2: 3}); err == nil {
		t.Fatal("ds: extent-2 activation over 3 slabs must fail")
	}
	if _, err := run(m, batches, dist.Plan{Strategy: core.DataSpatial, P1: 0, P2: 2}); err == nil {
		t.Fatal("ds: p1=0 must fail")
	}
}

// TestUnevenPartitions exercises remainder-bearing shards (p that does
// not divide the batch, filter counts, or layer count).
func TestUnevenPartitions(t *testing.T) {
	m := model.Tiny3D()
	batches := toyBatches(t, m, 3, 4) // batch 4 over 3 replicas → 2,1,1
	seq := serial(t, m, batches)
	gotData, err := run(m, batches, dist.Plan{Strategy: core.Data, P1: 3})
	assertParity(t, seq, gotData, err)
	gotFilter, err := run(m, batches, dist.Plan{Strategy: core.Filter, P2: 3}) // min F_l = 4
	assertParity(t, seq, gotFilter, err)
	gotPipe, err := run(m, batches, dist.Plan{Strategy: core.Pipeline, P2: 3}) // 5 layers over 3 stages
	assertParity(t, seq, gotPipe, err)
}

// TestWidthOne: every strategy at p=1 degenerates to the sequential
// baseline exactly.
func TestWidthOne(t *testing.T) {
	m := model.Tiny3D()
	batches := toyBatches(t, m, 2, 2)
	seq := serial(t, m, batches)
	for _, pl := range pureAt(1) {
		got, err := run(m, batches, pl)
		if err != nil {
			t.Fatalf("%s: %v", pl, err)
		}
		for i := range seq.Losses {
			if got.Losses[i] != seq.Losses[i] {
				t.Fatalf("%s iter %d: %.17g != sequential %.17g", pl, i, got.Losses[i], seq.Losses[i])
			}
		}
	}
}

// TestDeterminism: two identical partitioned runs produce bit-identical
// loss series despite goroutine scheduling.
func TestDeterminism(t *testing.T) {
	m := model.Tiny3D()
	batches := toyBatches(t, m, 3, 4)
	a, err := run(m, batches, dist.Plan{Strategy: core.Spatial, P2: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(m, batches, dist.Plan{Strategy: core.Spatial, P2: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Losses {
		if a.Losses[i] != b.Losses[i] {
			t.Fatalf("iter %d: %.17g != %.17g", i, a.Losses[i], b.Losses[i])
		}
	}
}

// TestScalingLimits: the Table 3 feasibility bounds surface as errors,
// not panics or wrong numbers.
func TestScalingLimits(t *testing.T) {
	m := model.Tiny3D()
	batches := toyBatches(t, m, 1, 2)
	if _, err := run(m, batches, dist.Plan{Strategy: core.Data, P1: 3}); err == nil {
		t.Fatal("data: batch 2 over 3 replicas must fail")
	}
	if _, err := run(m, batches, dist.Plan{Strategy: core.Spatial, P2: 3}); err == nil {
		t.Fatal("spatial: extent-2 activation over 3 PEs must fail")
	}
	if _, err := run(m, batches, dist.Plan{Strategy: core.Filter, P2: 5}); err == nil {
		t.Fatal("filter: p=5 > min F_l=4 must fail")
	}
	if _, err := run(m, batches, dist.Plan{Strategy: core.Channel, P2: 5}); err == nil {
		t.Fatal("channel: p=5 > min C_l=4 must fail")
	}
	if _, err := run(m, batches, dist.Plan{Strategy: core.Pipeline, P2: 8}); err == nil {
		t.Fatal("pipeline: 8 stages for 7 layers must fail")
	}
	if _, err := run(m, batches, dist.Plan{Strategy: core.Data, P1: 0}); err == nil {
		t.Fatal("p=0 must fail")
	}
}

// TestBatchValidation: malformed batches are rejected before any PE
// spawns.
func TestBatchValidation(t *testing.T) {
	m := model.Tiny3D()
	good := toyBatches(t, m, 1, 2)
	bad := []dist.Batch{{X: good[0].X, Labels: []int{0}}}
	if _, err := run(m, bad, dist.Plan{Strategy: core.Data, P1: 2}); err == nil {
		t.Fatal("label/sample mismatch must fail")
	}
	other := model.TinyCNN()
	if _, err := run(other, good, dist.Plan{Strategy: core.Spatial, P2: 2}); err == nil {
		t.Fatal("geometry mismatch must fail")
	}
}

// residualPlans is the acceptance grid of the DAG executor: every
// registry plan the ISSUE pins for model.TinyResNet.
func residualPlans() []dist.Plan {
	return []dist.Plan{
		{Strategy: core.Data, P1: 4},
		{Strategy: core.Filter, P2: 2},
		{Strategy: core.Spatial, P2: 2},
		{Strategy: core.Channel, P2: 2},
		{Strategy: core.Pipeline, P2: 2},
		{Strategy: core.DataFilter, P1: 2, P2: 2},
		{Strategy: core.DataSpatial, P1: 2, P2: 2},
		{Strategy: core.DataPipeline, P1: 2, P2: 2},
	}
}

// TestResidualParityAllPlans is the headline acceptance criterion of
// the graph executor: TinyResNet — projection shortcut, additive merge
// — reproduces the sequential DAG baseline's per-iteration losses to
// ≤ 1e-6 under every registry plan (data:4, filter:2, spatial:2,
// channel:2, pipe:2, df:2x2, ds:2x2, dp:2x2).
func TestResidualParityAllPlans(t *testing.T) {
	m := model.TinyResNet()
	batches := toyBatches(t, m, 3, 8)
	seq, err := dist.Run(m, batches, dist.Plan{Strategy: core.Serial}, dist.WithSeed(seed), dist.WithLR(lr))
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range residualPlans() {
		got, err := dist.Run(m, batches, pl, dist.WithSeed(seed), dist.WithLR(lr))
		if err != nil {
			t.Fatalf("%s: %v", pl, err)
		}
		assertParity(t, seq, got, err)
	}
}

// TestResidualParityMomentum: the DAG executor composes with heavy-ball
// SGD on sharded branch weights.
func TestResidualParityMomentum(t *testing.T) {
	m := model.TinyResNet()
	batches := toyBatches(t, m, 3, 8)
	opts := []dist.Option{dist.WithSeed(seed), dist.WithLR(lr), dist.WithMomentum(0.9)}
	seq, err := dist.Run(m, batches, dist.Plan{Strategy: core.Serial}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range []dist.Plan{{Strategy: core.Data, P1: 4}, {Strategy: core.DataFilter, P1: 2, P2: 2}} {
		got, err := dist.Run(m, batches, pl, opts...)
		assertParity(t, seq, got, err)
	}
}

// TestResidualOverlapBitIdentity: on the residual model, the
// nonblocking bucketed gradient exchange must stay bit-identical to
// the blocking one (the buckets now carry shortcut gradients too).
func TestResidualOverlapBitIdentity(t *testing.T) {
	m := model.TinyResNet()
	batches := toyBatches(t, m, 3, 8)
	for _, pl := range []dist.Plan{{Strategy: core.Data, P1: 4}, {Strategy: core.DataFilter, P1: 2, P2: 2}, {Strategy: core.DataSpatial, P1: 2, P2: 2}} {
		var runs [2]*dist.Result
		for i, overlap := range []bool{true, false} {
			res, err := dist.Run(m, batches, pl, dist.WithSeed(seed), dist.WithLR(lr),
				dist.WithOverlap(overlap), dist.WithBucketBytes(dist.BenchOverlapBucketBytes))
			if err != nil {
				t.Fatalf("%s overlap=%v: %v", pl, overlap, err)
			}
			runs[i] = res
		}
		for i := range runs[0].Losses {
			if runs[0].Losses[i] != runs[1].Losses[i] {
				t.Fatalf("%s iter %d: overlap %v vs blocking %v — must be bit-identical", pl, i, runs[0].Losses[i], runs[1].Losses[i])
			}
		}
	}
}

// TestResidualPipelineLegality: stage splitting must keep a residual
// block's tap, shortcut, and merge inside one stage. Boundaries snap
// to legal cuts when possible (pipe:4 trains in parity); when the
// model does not admit enough legal cuts the error names the shortcut
// a cut would sever.
func TestResidualPipelineLegality(t *testing.T) {
	m := model.TinyResNet()
	batches := toyBatches(t, m, 2, 8)
	seq, err := dist.Run(m, batches, dist.Plan{Strategy: core.Serial}, dist.WithSeed(seed), dist.WithLR(lr))
	if err != nil {
		t.Fatal(err)
	}
	got, err := dist.Run(m, batches, dist.Plan{Strategy: core.Pipeline, P2: 4}, dist.WithSeed(seed), dist.WithLR(lr))
	assertParity(t, seq, got, err)

	// TinyResNet has 11 legal cuts (the block interior forbids 5 of
	// G-1 = 16): 13 stages would need 12.
	_, err = dist.Run(m, batches, dist.Plan{Strategy: core.Pipeline, P2: 13}, dist.WithSeed(seed), dist.WithLR(lr))
	if err == nil || !strings.Contains(err.Error(), "_shortcut") {
		t.Fatalf("unsupported partition must name the offending shortcut layer, got %v", err)
	}
	if !strings.Contains(err.Error(), "residual block") {
		t.Fatalf("legality error should explain the residual-block rule, got %v", err)
	}
}

// TestMalformedBranchRejected: models whose branch taps do not resolve
// still fail loudly — at graph compile time, before any PE spawns.
func TestMalformedBranchRejected(t *testing.T) {
	m := model.TinyResNet()
	for l := range m.Layers {
		if m.Layers[l].Branch {
			m.Layers[l].Tap = l // tap itself: unresolvable
		}
	}
	batches := toyBatches(t, model.TinyResNet(), 1, 2)
	if _, err := run(m, batches, dist.Plan{Strategy: core.Data, P1: 1}); err == nil ||
		!strings.Contains(err.Error(), "graph") {
		t.Fatalf("malformed tap must be rejected with a graph-compile error, got %v", err)
	}
}

// TestSpatialBranchLegality: the spatial engine aggregates slabs before
// the classifier head (§4.5.1), so a residual block closing inside the
// trunk is supported, while a branch merging into the head is a
// genuinely unsupported partition rejected with a targeted error
// naming the offending layer.
func TestSpatialBranchLegality(t *testing.T) {
	b := nn.NewBuilder("trunk-branch", 3, []int{8, 8})
	b.Conv(4, 3, 1, 1).ReLU()
	c, dims := b.Snapshot()
	b.Conv(4, 3, 1, 1)
	b.ShortcutConv(c, dims, 4, 1, 1, 0)
	b.ReLU()
	b.FC(6)
	trunk := b.MustBuild()
	batches := toyBatches(t, trunk, 2, 4)
	seq := serial(t, trunk, batches)
	got, err := run(trunk, batches, dist.Plan{Strategy: core.Spatial, P2: 2})
	assertParity(t, seq, got, err)

	// Hand-build a head-resident branch: a full-extent shortcut
	// convolution merging into the classifier FC's output.
	head := &nn.Model{Name: "head-branch", InputChannels: 3, InputDims: []int{8, 8}, Classes: 6, Layers: []nn.Layer{
		{Kind: nn.Conv, Name: "conv1", C: 3, F: 4, In: []int{8, 8}, Out: []int{8, 8},
			Kernel: []int{3, 3}, Stride: []int{1, 1}, Pad: []int{1, 1}},
		{Kind: nn.FC, Name: "fc1", C: 4, F: 6, In: []int{8, 8}, Out: []int{1, 1}},
		{Kind: nn.Conv, Name: "conv2_shortcut", C: 3, F: 6, In: []int{8, 8}, Out: []int{1, 1},
			Kernel: []int{8, 8}, Stride: []int{1, 1}, Pad: []int{0, 0}, Branch: true, Tap: -1},
	}}
	if err := head.Validate(); err != nil {
		t.Fatal(err)
	}
	_, err = run(head, toyBatches(t, head, 1, 4), dist.Plan{Strategy: core.Spatial, P2: 2})
	if err == nil || !strings.Contains(err.Error(), "conv2_shortcut") {
		t.Fatalf("head-resident branch must be rejected with an error naming it, got %v", err)
	}
}
