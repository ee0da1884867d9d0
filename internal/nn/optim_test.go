package nn

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"paradl/internal/tensor"
)

func TestSGDOptimizerMatchesStep(t *testing.T) {
	m := smallModel(t)
	rng := rand.New(rand.NewSource(50))
	a := NewNetwork(m, rand.New(rand.NewSource(51)))
	b := NewNetwork(m, rand.New(rand.NewSource(51)))
	x := tensor.New(4, 3, 8, 8).RandN(rng, 1)
	labels := []int{0, 1, 2, 3}

	logits, states := a.Forward(x)
	_, d := tensor.SoftmaxCrossEntropy(logits, labels)
	_, grads := a.Backward(d, states)

	a.Step(grads, 0.1)
	b.StepWith(&SGD{LR: 0.1}, grads)
	for l := range a.Params {
		if a.Params[l].W != nil && !a.Params[l].W.AllClose(b.Params[l].W, 0) {
			t.Fatalf("SGD optimizer diverges from Step at layer %d", l)
		}
	}
}

// TestMomentumUpdate: the heavy-ball recurrence v ← µv + g, w ← w − lr·v
// against a hand-computed two-step trace, and the Update path (the one
// sharded runtimes use) agreeing with Step.
func TestMomentumUpdate(t *testing.T) {
	w := tensor.FromSlice([]float64{1, 2}, 2)
	g := tensor.FromSlice([]float64{0.5, -1}, 2)
	opt := NewMomentum(0.1, 0.9)
	opt.Update(w, g) // v = g → w = {1−0.05, 2+0.1}
	opt.Update(w, g) // v = 0.9g + g = 1.9g → w −= 0.19g
	want := []float64{1 - 0.05 - 0.095, 2 + 0.1 + 0.19}
	for i, v := range w.Data() {
		if math.Abs(v-want[i]) > 1e-12 {
			t.Fatalf("w[%d] = %.15f, want %.15f", i, v, want[i])
		}
	}
	if opt.ExtraStatePerParam() != 1 || opt.Name() != "momentum" {
		t.Fatalf("momentum metadata: %d state, name %q", opt.ExtraStatePerParam(), opt.Name())
	}

	m := smallModel(t)
	rng := rand.New(rand.NewSource(53))
	a := NewNetwork(m, rand.New(rand.NewSource(54)))
	b := NewNetwork(m, rand.New(rand.NewSource(54)))
	x := tensor.New(4, 3, 8, 8).RandN(rng, 1)
	logits, states := a.Forward(x)
	_, d := tensor.SoftmaxCrossEntropy(logits, []int{0, 1, 2, 3})
	_, grads := a.Backward(d, states)
	a.StepWith(NewMomentum(0.1, 0.9), grads)
	bo := NewMomentum(0.1, 0.9)
	for l := range b.Params {
		applyPair(b.Params[l].W, grads[l].W, bo.Update)
		applyPair(b.Params[l].B, grads[l].B, bo.Update)
		applyPair(b.Params[l].Gamma, grads[l].Gamma, bo.Update)
		applyPair(b.Params[l].Beta, grads[l].Beta, bo.Update)
	}
	for l := range a.Params {
		if a.Params[l].W != nil && !a.Params[l].W.AllClose(b.Params[l].W, 0) {
			t.Fatalf("Momentum Step diverges from per-pair Update at layer %d", l)
		}
	}
}

// TestOptimizersRejectMisshapedGradient: a gradient that does not have
// its parameter's shape — longer (it used to be silently truncated by
// Momentum), shorter (a bare index panic), or the same length laid out
// differently — is rejected by both optimizers with the same message, before any element is written. With chunk-wise updates
// this is the guard that catches a wrong offset.
func TestOptimizersRejectMisshapedGradient(t *testing.T) {
	optimizers := map[string]func() Optimizer{
		"sgd":      func() Optimizer { return &SGD{LR: 0.1} },
		"momentum": func() Optimizer { return NewMomentum(0.1, 0.9) },
	}
	for _, g := range []struct {
		name string
		grad *tensor.Tensor
	}{
		{"longer", tensor.New(5)},
		{"shorter", tensor.New(3)},
		{"reshaped", tensor.New(2, 2)},
	} {
		want := ""
		for name, mk := range optimizers {
			t.Run(g.name+"/"+name, func(t *testing.T) {
				w := tensor.FromSlice([]float64{1, 2, 3, 4}, 4)
				defer func() {
					msg, ok := recover().(string)
					if !ok || !strings.HasPrefix(msg, "tensor: shape mismatch") {
						t.Fatalf("want a shape-mismatch panic, got %v", msg)
					}
					if want == "" {
						want = msg
					}
					if msg != want {
						t.Fatalf("message %q differs from another optimizer's %q", msg, want)
					}
					for i, v := range w.Data() {
						if v != float64(i+1) {
							t.Fatalf("parameter written before the rejection: %v", w.Data())
						}
					}
				}()
				mk().Step([]Params{{W: w}}, []Grads{{W: g.grad}})
			})
		}
	}
}
