// Overlap determinism suite (training level): for every engine with a
// gradient exchange, an overlap-on run must reproduce the overlap-off
// run's per-iteration losses BIT for bit — same buckets, same
// collectives, only the launch timing differs — at widths p∈{2,3,4,5,8},
// on hybrid grids (sub-communicator exchanges), and across bucket sizes
// including ones that force uneven bucket tails. Parity vs the
// sequential baseline is covered by the main suite, which now runs with
// overlap on by default.
package dist_test

import (
	"fmt"
	"testing"

	"paradl/internal/core"
	"paradl/internal/dist"
	"paradl/internal/model"
	"paradl/internal/nn"
)

// assertBitIdentical pins two runs to the exact same loss bits.
func assertBitIdentical(t *testing.T, label string, on, off *dist.Result) {
	t.Helper()
	if len(on.Losses) != len(off.Losses) {
		t.Fatalf("%s: %d losses with overlap vs %d without", label, len(on.Losses), len(off.Losses))
	}
	for i := range on.Losses {
		if on.Losses[i] != off.Losses[i] {
			t.Fatalf("%s iter %d: overlap %.17g != blocking %.17g", label, i, on.Losses[i], off.Losses[i])
		}
	}
}

// overlapAB runs one plan with overlap on and off under the given extra
// options, demands bit-identical losses and returns the overlapped run.
func overlapAB(t *testing.T, m *nn.Model, batches []dist.Batch, pl dist.Plan, label string, extra ...dist.Option) *dist.Result {
	t.Helper()
	base := append([]dist.Option{dist.WithSeed(seed), dist.WithLR(lr)}, extra...)
	on, err := dist.Run(m, batches, pl, append(base, dist.WithOverlap(true))...)
	if err != nil {
		t.Fatalf("%s overlap on: %v", label, err)
	}
	off, err := dist.Run(m, batches, pl, append(base, dist.WithOverlap(false))...)
	if err != nil {
		t.Fatalf("%s overlap off: %v", label, err)
	}
	assertBitIdentical(t, label, on, off)
	return on
}

// TestOverlapTrainingBitIdenticalWidths: data parallelism — the
// heaviest gradient-exchange user — at every suite width, including
// remainder-bearing batch shards (p=3, 5).
func TestOverlapTrainingBitIdenticalWidths(t *testing.T) {
	m := model.TinyCNNNoBN()
	batches := toyBatches(t, m, 3, 8)
	for _, p := range []int{2, 3, 4, 5, 8} {
		overlapAB(t, m, batches, dist.Plan{Strategy: core.Data, P1: p}, fmt.Sprintf("data:%d", p))
	}
}

// TestOverlapTrainingBitIdenticalEngines: every engine with a real
// exchange — the filter/spatial/pipeline grids run their segmented and
// world-wide exchanges over sub-communicators, and channel's shard and
// bias gradients pass the same exchanger on a segment of one — plus
// synchronized batch norm (blocking collectives interleaved with
// in-flight buckets on the same communicators).
func TestOverlapTrainingBitIdenticalEngines(t *testing.T) {
	m := model.TinyCNNNoBN()
	batches := toyBatches(t, m, 3, 8)
	for _, pl := range []dist.Plan{
		{Strategy: core.Filter, P2: 3},
		{Strategy: core.Channel, P2: 2},
		{Strategy: core.DataFilter, P1: 2, P2: 2},
		{Strategy: core.DataSpatial, P1: 2, P2: 2},
		{Strategy: core.DataPipeline, P1: 2, P2: 2},
		{Strategy: core.DataPipeline, P1: 2, P2: 3},
	} {
		overlapAB(t, m, batches, pl, pl.String())
	}
	bn := model.TinyCNN()
	bnBatches := toyBatches(t, bn, 3, 8)
	overlapAB(t, bn, bnBatches, dist.Plan{Strategy: core.Data, P1: 4}, "data:4+syncBN")
	overlapAB(t, bn, bnBatches, dist.Plan{Strategy: core.DataSpatial, P1: 2, P2: 2}, "ds:2x2+syncBN")
}

// TestOverlapTrainingBucketSizes: bucket-boundary extremes — one tensor
// per bucket (1 byte), buckets that cut mid-backward with an uneven
// tail (2 KiB), and everything in one bucket (1 MiB) — each pinned
// bit-identical between overlap modes, for EVERY engine with a gradient
// exchange. The small sizes are what actually exercise the nonblocking
// path (at the 256 KiB default the toy gradient sets flush only at
// drain, which is blocking in both modes): spatial runs its two
// exchangers (world trunk + segment head) with handles in flight
// concurrently, pipeline launches from inside the final microbatch
// flush, and at 1 byte channel pushes and steps every shard and bias
// gradient alone. Different bucket sizes pack different flat buffers, so runs
// are only comparable within one setting; across settings the parity
// suite's 1e-6 bound applies.
func TestOverlapTrainingBucketSizes(t *testing.T) {
	m := model.TinyCNNNoBN()
	batches := toyBatches(t, m, 3, 8)
	for _, bb := range []int{1, 2 << 10, 1 << 20} {
		for _, pl := range []dist.Plan{
			{Strategy: core.Data, P1: 4},
			{Strategy: core.Channel, P2: 2},
			{Strategy: core.DataFilter, P1: 2, P2: 2},
			{Strategy: core.DataSpatial, P1: 2, P2: 2},
			{Strategy: core.DataPipeline, P1: 2, P2: 3},
		} {
			overlapAB(t, m, batches, pl, fmt.Sprintf("%s bucket=%d", pl, bb), dist.WithBucketBytes(bb))
		}
	}
}

// TestOverlapTrainingMomentum: velocity state composes with the
// overlapped exchange (the optimizer steps inside drain, or inside the
// ring on a flight's worker, never on a gradient still in flight).
func TestOverlapTrainingMomentum(t *testing.T) {
	m := model.TinyCNNNoBN()
	batches := toyBatches(t, m, 3, 8)
	overlapAB(t, m, batches, dist.Plan{Strategy: core.Data, P1: 4}, "data:4+momentum", dist.WithMomentum(0.9))
}

// TestExchangerTrainingOversizedGradient: a bench-fcnet-shaped model —
// one FC weight of 320 KiB, above even the default 256 KiB bucket, among
// tiny conv/bias/classifier gradients — takes the exchanged-alone,
// in-place path in the middle of the backward pass. Overlap on/off must
// stay bit-identical at every bucket size (1 byte: every tensor alone;
// 4 KiB: the second FC weight oversized too; default), and every
// setting keeps value parity with sequential SGD.
func TestExchangerTrainingOversizedGradient(t *testing.T) {
	m := dist.FCNetShapedForTest(320, 10)
	batches := toyBatches(t, m, 3, 8)
	seq := serial(t, m, batches)
	for _, bb := range []int{1, 4 << 10, 256 << 10} {
		for _, pl := range []dist.Plan{
			{Strategy: core.Data, P1: 2},
			{Strategy: core.Data, P1: 4},
			{Strategy: core.DataFilter, P1: 2, P2: 2},
		} {
			label := fmt.Sprintf("%s bucket=%d", pl, bb)
			assertParity(t, seq, overlapAB(t, m, batches, pl, label, dist.WithBucketBytes(bb)), nil)
		}
	}
}
