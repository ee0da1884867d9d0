package nn_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"paradl/internal/model"
	"paradl/internal/nn"
	"paradl/internal/tensor"
)

// wide2D is the geometry of the repo benchmark's compute-bound model:
// three 3x3 convolutions on a 32x32 image, two max-pools, an FC head.
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

// frameModels are the models the frame contract is checked on: batch
// norm (tinycnn), a residual DAG (tinyresnet), 3-D windows (tiny3d) and
// a branch tapping the network input.
func frameModels(t *testing.T) []*nn.Model {
	return []*nn.Model{model.TinyCNN(), model.TinyResNet(), model.Tiny3D(), nn.InputTapModel(t)}
}

// batch draws n samples of m's input geometry and their labels.
func batch(m *nn.Model, rng *rand.Rand, n int) (*tensor.Tensor, []int) {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(m.Classes)
	}
	return tensor.New(append([]int{n, m.InputChannels}, m.InputDims...)...).RandN(rng, 1), labels
}

// freshStep is TrainStep composed from ForwardLayer and BackwardLayer,
// whose every buffer is new: the reference the frame is held to.
func freshStep(net *nn.Network, x *tensor.Tensor, labels []int, lr float64) float64 {
	g, layers := net.Graph(), len(net.Model.Layers)
	states := make([]*nn.LayerState, layers)
	logits := g.ForwardRange(0, layers, x, func(l int, xin *tensor.Tensor) *tensor.Tensor {
		y, st := net.ForwardLayer(l, xin)
		states[l] = st
		return y
	})
	loss, dLogits := tensor.SoftmaxCrossEntropy(logits, labels)
	grads := make([]nn.Grads, layers)
	g.BackwardRange(0, layers, dLogits, func(l int, dy *tensor.Tensor) *tensor.Tensor {
		dx, gr := net.BackwardLayer(l, dy, states[l])
		grads[l] = gr
		return dx
	})
	net.Step(grads, lr)
	return loss
}

// sameBits fails unless a and b hold the same bits, nil included.
func sameBits(t *testing.T, what string, a, b *tensor.Tensor) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: nil mismatch", what)
	}
	if a == nil {
		return
	}
	if !tensor.EqualShapes(a.Shape(), b.Shape()) {
		t.Fatalf("%s: shape %v vs %v", what, a.Shape(), b.Shape())
	}
	for i, v := range a.Data() {
		if math.Float64bits(v) != math.Float64bits(b.Data()[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, v, b.Data()[i])
		}
	}
}

// TrainStep reuses one frame of buffers from step to step and skips the
// network input's gradient; neither may move a bit. Its loss series and
// final parameters must equal those of the fresh-buffer composition,
// over a batch-size change that makes the frame reallocate and back.
func TestTrainStepFrameMatchesFreshLayers(t *testing.T) {
	for _, m := range frameModels(t) {
		t.Run(m.Name, func(t *testing.T) {
			framed := nn.NewNetwork(m, rand.New(rand.NewSource(5)))
			fresh := nn.NewNetwork(m, rand.New(rand.NewSource(5)))
			rng := rand.New(rand.NewSource(6))
			for it, n := range []int{4, 4, 4, 2, 4, 4} {
				x, labels := batch(m, rng, n)
				got, want := framed.TrainStep(x, labels, 0.05), freshStep(fresh, x, labels, 0.05)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("iteration %d: loss %x, fresh buffers %x", it, math.Float64bits(got), math.Float64bits(want))
				}
			}
			for l := range m.Layers {
				a, b := framed.Params[l], fresh.Params[l]
				sameBits(t, fmt.Sprintf("layer %d W", l), a.W, b.W)
				sameBits(t, fmt.Sprintf("layer %d B", l), a.B, b.B)
				sameBits(t, fmt.Sprintf("layer %d Gamma", l), a.Gamma, b.Gamma)
				sameBits(t, fmt.Sprintf("layer %d Beta", l), a.Beta, b.Beta)
			}
		})
	}
}

// The training backward skips only input gradients no layer consumes,
// so its parameter gradients are Backward's, bit for bit.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	for _, m := range frameModels(t) {
		t.Run(m.Name, func(t *testing.T) {
			net := nn.NewNetwork(m, rand.New(rand.NewSource(7)))
			x, labels := batch(m, rand.New(rand.NewSource(8)), 3)
			logits, states := net.Forward(x)
			_, dLogits := tensor.SoftmaxCrossEntropy(logits, labels)
			_, full := net.Backward(dLogits, states)
			want := make([][4]*tensor.Tensor, len(full))
			for l, g := range full {
				for f, v := range [4]*tensor.Tensor{g.W, g.B, g.Gamma, g.Beta} {
					if v != nil {
						want[l][f] = v.Clone() // the next backward rewrites the buffer
					}
				}
			}
			for l, g := range net.BackwardParams(dLogits, states) {
				for f, v := range [4]*tensor.Tensor{g.W, g.B, g.Gamma, g.Beta} {
					sameBits(t, fmt.Sprintf("layer %d field %d", l, f), v, want[l][f])
				}
			}
		})
	}
}

// A step in its steady state allocates the same objects at every
// iteration, and few: its activations, gradients and kernel scratch are
// the frame's, batch norm's statistics included (tinycnn), so the bytes
// per step stay at a few small headers (before the frame a step
// allocated 1.2–17 MB on these models). The kept-buffer checks compare
// shapes without copying them: with a copy per check a step made 16 /
// 23 / 23 / 22 / 15 objects on bench-wide2d / tinycnn / tinycnn-nobn /
// tinyresnet / tiny3d, without it 10 / 16 / 16 / 12 / 10.
func TestTrainStepAllocationsSteady(t *testing.T) {
	const (
		maxBytesPerStep  = 16 << 10
		maxAllocsPerStep = 16
	)
	runtime.GC() // start the GC's workers before counting
	for _, m := range []*nn.Model{wide2D(), model.TinyCNN(), model.TinyCNNNoBN(), model.TinyResNet(), model.Tiny3D()} {
		t.Run(m.Name, func(t *testing.T) {
			net := nn.NewNetwork(m, rand.New(rand.NewSource(9)))
			x, labels := batch(m, rand.New(rand.NewSource(10)), 8)
			step := func() { net.TrainStep(x, labels, 1e-3) }
			step()
			second := testing.AllocsPerRun(1, step) // iterations 2 and 3
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			const steps = 3
			for i := 0; i < steps; i++ {
				step()
			}
			runtime.ReadMemStats(&after)
			for i := 0; i < 12; i++ {
				step()
			}
			if twentieth := testing.AllocsPerRun(1, step); twentieth != second {
				t.Errorf("allocations per step: %v at iteration 2, %v at iteration 20", second, twentieth)
			}
			if second > maxAllocsPerStep {
				t.Errorf("%v allocations per step, ceiling %d", second, maxAllocsPerStep)
			}
			if b := (after.TotalAlloc - before.TotalAlloc) / steps; b > maxBytesPerStep {
				t.Errorf("%d bytes allocated per step, ceiling %d", b, maxBytesPerStep)
			}
		})
	}
}

// BenchmarkTrainStep times the serial training step at batch 8 on the
// repo benchmark's models: bench-wide2d's geometry and the three
// train_small models.
func BenchmarkTrainStep(b *testing.B) {
	for _, m := range []*nn.Model{wide2D(), model.TinyCNNNoBN(), model.TinyResNet(), model.Tiny3D()} {
		b.Run(m.Name, func(b *testing.B) {
			net := nn.NewNetwork(m, rand.New(rand.NewSource(11)))
			x, labels := batch(m, rand.New(rand.NewSource(12)), 8)
			b.ReportAllocs()
			for b.Loop() {
				net.TrainStep(x, labels, 1e-3)
			}
		})
	}
}
