package nn

import (
	"math"
	"strings"
	"testing"

	"paradl/internal/tensor"
)

// TestMomentumUpdate: the heavy-ball recurrence v ← µv + g, w ← w − lr·v
// against a hand-computed two-step trace, through Update — the step the
// runtime applies to every whole parameter and shard.
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
}

// TestOptimizersRejectMisshapedGradient: a gradient that does not have
// its parameter's shape — longer (it used to be silently truncated by
// Momentum), shorter (a bare index panic), or the same length laid out
// differently — is rejected by both update kernels the runtime calls,
// tensor.SGDStep and Momentum.Update, with the same message, before any
// element is written. With chunk-wise updates this is the guard that
// catches a wrong offset. The parameter is 16 wide, so on amd64 with
// AVX2 the rejected SGD step would otherwise run the vector axpy.
func TestOptimizersRejectMisshapedGradient(t *testing.T) {
	const n = 16
	updates := map[string]func(w, g *tensor.Tensor){
		"sgd":      func(w, g *tensor.Tensor) { tensor.SGDStep(w, g, 0.1) },
		"momentum": NewMomentum(0.1, 0.9).Update,
	}
	for _, g := range []struct {
		name string
		grad *tensor.Tensor
	}{
		{"longer", tensor.New(n + 1)},
		{"shorter", tensor.New(n - 1)},
		{"reshaped", tensor.New(4, 4)},
	} {
		want := ""
		for name, update := range updates {
			t.Run(g.name+"/"+name, func(t *testing.T) {
				w := tensor.New(n)
				for i := range w.Data() {
					w.Data()[i] = float64(i + 1)
				}
				g.grad.Fill(1)
				defer func() {
					msg, ok := recover().(string)
					if !ok || !strings.HasPrefix(msg, "tensor: shape mismatch") {
						t.Fatalf("want a shape-mismatch panic, got %v", msg)
					}
					if want == "" {
						want = msg
					}
					if msg != want {
						t.Fatalf("message %q differs from another update's %q", msg, want)
					}
					for i, v := range w.Data() {
						if v != float64(i+1) {
							t.Fatalf("parameter written before the rejection: %v", w.Data())
						}
					}
				}()
				update(w, g.grad)
			})
		}
	}
}
