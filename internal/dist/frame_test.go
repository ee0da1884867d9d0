// Step-frame tests of the engines: every layer runs in buffers each PE
// keeps from step to step, so these pin what reuse could break — a
// shape change mid-run, a reused buffer not fully rewritten, an engine
// writing into the caller's batch — and what reuse buys: bytes per
// iteration that do not grow with the run.
package dist_test

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"paradl/internal/core"
	"paradl/internal/data"
	"paradl/internal/dist"
	"paradl/internal/model"
	"paradl/internal/nn"
)

// wide2D is the geometry of the repo benchmark's compute-bound model,
// bench-wide2d: three 3x3 convolutions on a 32x32 image, two max-pools
// and an FC head.
func wide2D() *nn.Model {
	b := nn.NewBuilder("bench-wide2d", 3, []int{32, 32})
	b.Conv(16, 3, 1, 1).ReLU()
	b.Conv(32, 3, 1, 1).ReLU()
	b.Pool(nn.MaxPool, 2, 2, 0)
	b.Conv(32, 3, 1, 1).ReLU()
	b.Pool(nn.MaxPool, 2, 2, 0)
	b.FC(10)
	return b.MustBuild()
}

// trainSmall are the models of the repo benchmark's train_small workload.
func trainSmall() []*nn.Model {
	return []*nn.Model{model.TinyCNNNoBN(), model.TinyResNet(), model.Tiny3D()}
}

// planShapes are the fourteen plan shapes every engine is held to:
// serial and the five pure strategies at p = 2 and 4, and the three
// hybrids at 2x2.
var planShapes = []string{
	"serial", "data:2", "data:4", "spatial:2", "spatial:4", "filter:2", "filter:4",
	"channel:2", "channel:4", "pipeline:2", "pipeline:4", "df:2x2", "ds:2x2", "dp:2x2",
}

// varBatches draws one batch per size, so a run's shards are uneven and
// its shapes change from one iteration to the next.
func varBatches(m *nn.Model, sizes ...int) []dist.Batch {
	ds := data.Toy(m, 64)
	out := make([]dist.Batch, len(sizes))
	for i, n := range sizes {
		out[i] = ds.Batch(i, n)
	}
	return out
}

// Engines only read their input: every plan shape leaves every bit of
// the caller's batches — samples and labels — as it found them, which
// is what lets groupShard hand each group a view of the batch instead
// of a copy. An infeasible plan shape is skipped after the check.
func TestRunLeavesBatchesUntouched(t *testing.T) {
	models := []*nn.Model{model.TinyCNNNoBN(), model.TinyResNet(), model.Tiny3D(), model.TinyCNN(), wide2D()}
	for _, m := range models {
		for _, ps := range planShapes {
			t.Run(m.Name+"/"+ps, func(t *testing.T) {
				batches := varBatches(m, 6, 5)
				xs := make([][]uint64, len(batches))
				labels := make([][]int, len(batches))
				for i, b := range batches {
					for _, v := range b.X.Data() {
						xs[i] = append(xs[i], math.Float64bits(v))
					}
					labels[i] = append([]int(nil), b.Labels...)
				}
				_, err := dist.Run(m, batches, mustPlan(t, ps), dist.WithSeed(seed), dist.WithLR(lr), dist.WithMomentum(0.9))
				for i, b := range batches {
					for j, v := range b.X.Data() {
						if math.Float64bits(v) != xs[i][j] {
							t.Fatalf("batch %d sample element %d: %x after the run, %x before", i, j, math.Float64bits(v), xs[i][j])
						}
					}
					for j, v := range b.Labels {
						if v != labels[i][j] {
							t.Fatalf("batch %d label %d: %d after the run, %d before", i, j, v, labels[i][j])
						}
					}
				}
				var inf *dist.InfeasibleError
				if err != nil && !errors.As(err, &inf) {
					t.Fatal(err)
				}
			})
		}
	}
}

// Batch sizes that change mid-run — uneven group shards and
// micro-batches, frames and halo buffers that must reallocate on every
// shape change and back — keep every engine within 1e-6 of serial SGD,
// and two runs of a plan agree bit for bit. tinycnn has batch norm,
// synchronized across the segment (or, spatially, the world) whenever
// the plan has a data or spatial axis; the pipeline normalizes each
// micro-batch by itself (GPipe), so on tinycnn the pipeline plans are
// held to bit-identity between runs only.
func TestVariableBatchParity(t *testing.T) {
	plans := []dist.Plan{
		{Strategy: core.Data, P1: 2}, {Strategy: core.Data, P1: 4},
		{Strategy: core.Filter, P2: 2}, {Strategy: core.DataFilter, P1: 2, P2: 2},
		{Strategy: core.Spatial, P2: 2}, {Strategy: core.Channel, P2: 2}, {Strategy: core.Pipeline, P2: 2},
		{Strategy: core.DataSpatial, P1: 2, P2: 2}, {Strategy: core.DataPipeline, P1: 2, P2: 2},
	}
	for _, m := range []*nn.Model{model.TinyCNNNoBN(), model.TinyResNet(), model.Tiny3D(), model.TinyCNN()} {
		batches := varBatches(m, 8, 8, 6, 8, 5, 8)
		for _, mu := range []float64{0, 0.9} {
			opts := []dist.Option{dist.WithSeed(seed), dist.WithLR(lr), dist.WithMomentum(mu)}
			want, err := dist.Run(m, batches, dist.Plan{Strategy: core.Serial}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, pl := range plans {
				t.Run(fmt.Sprintf("%s/%s/momentum=%g", m.Name, pl, mu), func(t *testing.T) {
					a, err := dist.Run(m, batches, pl, opts...)
					if m.Name != "tinycnn" || (pl.Strategy != core.Pipeline && pl.Strategy != core.DataPipeline) {
						assertParity(t, want, a, err)
					} else if err != nil {
						t.Fatal(err)
					}
					b, err := dist.Run(m, batches, pl, opts...)
					if err != nil {
						t.Fatal(err)
					}
					for i := range a.Losses {
						if math.Float64bits(a.Losses[i]) != math.Float64bits(b.Losses[i]) {
							t.Fatalf("iteration %d: loss %x, then %x", i, math.Float64bits(a.Losses[i]), math.Float64bits(b.Losses[i]))
						}
					}
				})
			}
		}
	}
}

// runAllocBytes returns the bytes allocated by one Run of pl over
// batches.
func runAllocBytes(t *testing.T, m *nn.Model, batches []dist.Batch, pl dist.Plan) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := dist.Run(m, batches, pl, dist.WithSeed(seed), dist.WithLR(lr)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Every engine runs every layer in the frame each PE keeps from step to
// step, so an iteration allocates a fixed, small amount: bytes per
// iteration, the difference between a run of 4n batches and one of n
// over the 3n extra iterations (set-up cancels), at batch 8 on the
// train_small models. With a group of one every collective is the
// identity and the data edge runs entirely on the frame: serial (the
// 1×1 corner, ≤ 2 KiB), data:2 and data:4 stay under 64 KiB. The spatial and pipeline engines keep their
// halo buffers and micro-batch rows too, and what stays fresh is small
// (the halo rows in flight, the gathered slab, the loss gradient): they
// stay under 256 KiB, their hybrids included. Past a group of one the
// filter shards' allgathered outputs, their concatenations and the
// sliced gradients stay fresh, as do a channel shard's input slice and
// its gathered input gradient, so filter:2, df:2x2 and channel:2 are
// held to half of what they allocated before the frame. KiB per
// iteration before it, on a 2-vCPU Xeon, tinycnn-nobn / tinyresnet /
// tiny3d (the same build's runs agree to 1 KiB): data:2 2 571 / 1 533 /
// 1 477, data:4 3 679 / 2 002 / 2 211, filter:2 4 590 / 3 039 / 2 416,
// df:2x2 5 798 / 3 580 / 3 281, spatial:2 4 666 / 3 026 / 2 872,
// channel:2 4 263 / 2 996 / 2 332, pipeline:2 2 746 / 1 639 / 1 700,
// ds:2x2 5 545 / 3 274 / 3 555, dp:2x2 3 981 / 2 188 / 2 596.
//
// tinycnn has batch norm, synchronized over the PEs that split its
// batch; its statistics and gradients live in the frame too, so serial,
// data:2, spatial:2 and ds:2x2 hold it to the same ceilings. Before synchronized
// BN ran in the layer op, which allocated its outputs on every call,
// they allocated 390, 561 and 575 KiB per iteration on it.
func TestEngineStepAllocationsSteady(t *testing.T) {
	ceilings := map[string][]uint64{ // KiB per iteration: tinycnn-nobn, tinyresnet, tiny3d[, tinycnn]
		"serial":     {64, 64, 64, 64},
		"data:2":     {64, 64, 64, 64},
		"data:4":     {64, 64, 64},
		"filter:2":   {4590 / 2, 3039 / 2, 2416 / 2},
		"df:2x2":     {5798 / 2, 3580 / 2, 3281 / 2},
		"spatial:2":  {256, 256, 256, 256},
		"channel:2":  {4263 / 2, 2996 / 2, 2332 / 2},
		"pipeline:2": {256, 256, 256},
		"ds:2x2":     {256, 256, 256, 256},
		"dp:2x2":     {256, 256, 256},
	}
	models := append(trainSmall(), model.TinyCNN())
	const n = 4
	runtime.GC() // start the GC's workers before counting
	for _, ps := range []string{"serial", "data:2", "data:4", "filter:2", "df:2x2", "spatial:2", "channel:2", "pipeline:2", "ds:2x2", "dp:2x2"} {
		for mi, m := range models[:len(ceilings[ps])] {
			t.Run(ps+"/"+m.Name, func(t *testing.T) {
				pl := mustPlan(t, ps)
				batches := data.Toy(m, 4*n*8).Batches(4*n, 8)
				short := runAllocBytes(t, m, batches[:n], pl)
				long := runAllocBytes(t, m, batches, pl)
				perIter := int64(long-short) / (3 * n)
				ceiling := int64(ceilings[ps][mi] << 10)
				t.Logf("%d KiB per iteration (ceiling %d KiB)", perIter>>10, ceiling>>10)
				if perIter > ceiling {
					t.Errorf("%d bytes allocated per iteration, ceiling %d", perIter, ceiling)
				}
			})
		}
	}
}

// BenchmarkEngineStep times whole runs — set-up plus 8 iterations at
// batch 8 — of the serial baseline and every plan of the repo
// benchmark's modelpar and p4 classes on the train_small models, with
// their allocations: data:2, the model-parallel filter:2, spatial:2,
// channel:2 and pipeline:2, and the p = 4 data:4, filter:4, df:2x2,
// ds:2x2 and dp:2x2. data:2 and spatial:2 also run tinycnn, whose
// batch norm they synchronize: the train_small models have none. serial
// and data:2 also run the fcnet-shaped model at bench-fcnet's 1024-wide
// FC layer, the large-FC kernels and weight update of train_comm.
func BenchmarkEngineStep(b *testing.B) {
	for _, ps := range []string{"serial", "data:2", "filter:2", "spatial:2", "channel:2", "pipeline:2", "data:4", "filter:4", "df:2x2", "ds:2x2", "dp:2x2"} {
		models := trainSmall()
		if ps == "data:2" || ps == "spatial:2" {
			models = append(models, model.TinyCNN())
		}
		if ps == "serial" || ps == "data:2" {
			models = append(models, dist.FCNetShapedForTest(1024, 10))
		}
		for _, m := range models {
			b.Run(ps+"/"+m.Name, func(b *testing.B) {
				pl := mustPlan(b, ps)
				batches := data.Toy(m, 64).Batches(8, 8)
				b.ReportAllocs()
				for b.Loop() {
					if _, err := dist.Run(m, batches, pl, dist.WithSeed(seed), dist.WithLR(lr)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
