// Trace suite (training level): every engine of the eight-plan matrix
// must emit a well-formed phase timeline when a recorder is attached —
// concurrent per-PE emission stays race-clean (this file runs under CI's
// race detector), the spans tile each PE's timeline (coverage ≥ 0.95),
// the strategy-specific phases actually appear, and attaching the
// recorder must not change a single loss bit: observation is not
// intervention.
package dist_test

import (
	"testing"

	"paradl/internal/core"
	"paradl/internal/dist"
	"paradl/internal/model"
	"paradl/internal/trace"
)

// traceOpts is the traced-run option set: overlap on with the toy A/B
// bucket size, so the async collective path (CollectiveLaunch spans +
// in-flight windows) is exercised wherever the plan has a gradient
// exchange.
func traceOpts(extra ...dist.Option) []dist.Option {
	return append([]dist.Option{dist.WithSeed(seed), dist.WithLR(lr),
		dist.WithOverlap(true), dist.WithBucketBytes(dist.BenchOverlapBucketBytes)}, extra...)
}

// TestTraceEveryPlan: the full eight-plan matrix on tinycnn-nobn, each
// run traced. Gates per plan: bit-identical losses vs the untraced run,
// per-PE span coverage, exact PE-track count, every iteration labelled,
// no ring drops, and the phases that define the strategy present with
// nonzero time.
func TestTraceEveryPlan(t *testing.T) {
	cases := []struct {
		plan   dist.Plan
		phases []trace.Phase // must appear with nonzero time
	}{
		{dist.Plan{Strategy: core.Data, P1: 4}, []trace.Phase{trace.CollectiveLaunch, trace.CollectiveWait}},
		{dist.Plan{Strategy: core.Spatial, P2: 4}, []trace.Phase{trace.Halo}},
		{dist.Plan{Strategy: core.Filter, P2: 4}, []trace.Phase{trace.CollectiveWait}},
		{dist.Plan{Strategy: core.Channel, P2: 4}, []trace.Phase{trace.CollectiveWait}},
		{dist.Plan{Strategy: core.Pipeline, P2: 4}, []trace.Phase{trace.PipelineTransfer}},
		{dist.Plan{Strategy: core.DataFilter, P1: 2, P2: 2}, []trace.Phase{trace.CollectiveLaunch, trace.CollectiveWait}},
		{dist.Plan{Strategy: core.DataSpatial, P1: 2, P2: 2}, []trace.Phase{trace.Halo, trace.CollectiveLaunch}},
		{dist.Plan{Strategy: core.DataPipeline, P1: 2, P2: 2}, []trace.Phase{trace.PipelineTransfer, trace.CollectiveLaunch}},
	}
	m := model.TinyCNNNoBN()
	const iters = 3
	batches := toyBatches(t, m, iters, 8)
	for _, tc := range cases {
		t.Run(tc.plan.String(), func(t *testing.T) {
			rec := trace.NewRecorder()
			traced, err := dist.Run(m, batches, tc.plan, traceOpts(dist.WithTrace(rec))...)
			if err != nil {
				t.Fatalf("traced run: %v", err)
			}
			plain, err := dist.Run(m, batches, tc.plan, traceOpts()...)
			if err != nil {
				t.Fatalf("untraced run: %v", err)
			}
			assertBitIdentical(t, tc.plan.String(), traced, plain)

			sum := rec.Summarize()
			if sum.PEs != tc.plan.P() {
				t.Fatalf("summary has %d PE tracks, want %d", sum.PEs, tc.plan.P())
			}
			if sum.Iters != iters {
				t.Fatalf("summary attributes %d iterations, want %d", sum.Iters, iters)
			}
			if sum.Dropped != 0 {
				t.Fatalf("ring dropped %d events on a toy run", sum.Dropped)
			}
			if sum.Coverage < 0.95 {
				t.Fatalf("span coverage %.3f < 0.95: the spans do not tile the PE timelines", sum.Coverage)
			}
			// Every plan computes; the strategy-specific phases define it.
			want := append([]trace.Phase{trace.ComputeForward, trace.ComputeBackward}, tc.phases...)
			for _, ph := range want {
				if sum.PhaseNS[ph.String()] <= 0 {
					t.Fatalf("phase %q absent from %s trace: %v", ph, tc.plan, sum.PhaseNS)
				}
			}
		})
	}
}

// TestTraceHiddenComm: with overlap on, the data engine's exchange must
// leave async in-flight windows in the trace — the overlap-hidden
// communication the summary reports next to the exposed phases.
func TestTraceHiddenComm(t *testing.T) {
	m := model.TinyCNNNoBN()
	batches := toyBatches(t, m, 3, 8)
	rec := trace.NewRecorder()
	if _, err := dist.Run(m, batches, dist.Plan{Strategy: core.Data, P1: 4}, traceOpts(dist.WithTrace(rec))...); err != nil {
		t.Fatal(err)
	}
	if sum := rec.Summarize(); sum.AsyncNS <= 0 {
		t.Fatalf("overlap-on data run recorded no async in-flight time: %+v", sum)
	}
}

// TestTraceBNSync: on a batch-norm model, the engines that shard the
// batch or spatial extent synchronize BN statistics across PEs, and
// those collectives must be attributed to the bn-sync phase, not
// folded into generic collective time. (Filter/channel parallel keep
// the full activation per PE, so their BN stays replicated — no sync.)
func TestTraceBNSync(t *testing.T) {
	m := model.TinyCNN()
	batches := toyBatches(t, m, 2, 8)
	for _, pl := range []dist.Plan{
		{Strategy: core.Data, P1: 2},
		{Strategy: core.Spatial, P2: 2},
	} {
		rec := trace.NewRecorder()
		if _, err := dist.Run(m, batches, pl, traceOpts(dist.WithTrace(rec))...); err != nil {
			t.Fatalf("%s: %v", pl, err)
		}
		if sum := rec.Summarize(); sum.PhaseNS[trace.BNSync.String()] <= 0 {
			t.Fatalf("%s on a BN model recorded no bn-sync time: %v", pl, sum.PhaseNS)
		}
	}
}

// TestTraceSerialBaseline: the sequential run traces too (one PE
// track, forward/backward spans), so -train serial -trace works. Serial
// is the Tensor engine's 1×1 corner, where every communicator has one
// PE: nothing is exchanged and nothing waited for, so the timeline holds
// compute and the driver's idle spans only — no collective phase.
func TestTraceSerialBaseline(t *testing.T) {
	m := model.TinyCNNNoBN()
	batches := toyBatches(t, m, 2, 8)
	rec := trace.NewRecorder()
	if _, err := dist.Run(m, batches, dist.Plan{Strategy: core.Serial}, traceOpts(dist.WithTrace(rec))...); err != nil {
		t.Fatal(err)
	}
	sum := rec.Summarize()
	if sum.PEs != 1 {
		t.Fatalf("serial run has %d PE tracks, want 1", sum.PEs)
	}
	for _, ph := range []trace.Phase{trace.ComputeForward, trace.ComputeBackward} {
		if sum.PhaseNS[ph.String()] <= 0 {
			t.Fatalf("phase %q absent from serial trace: %v", ph, sum.PhaseNS)
		}
	}
	allowed := map[string]bool{trace.ComputeForward.String(): true, trace.ComputeBackward.String(): true, trace.Idle.String(): true}
	for ph, ns := range sum.PhaseNS {
		if !allowed[ph] {
			t.Fatalf("serial trace records a %q span (%d ns): %v", ph, ns, sum.PhaseNS)
		}
	}
	if sum.AsyncNS != 0 {
		t.Fatalf("serial trace records %d ns in flight", sum.AsyncNS)
	}
}
