package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// convCase is one convolution geometry of the kernel benchmarks.
type convCase struct {
	x, w, bias *Tensor
	spec       ConvSpec
}

func newConvCase(seed int64, xShape, wShape []int, stride, pad int) convCase {
	rng := rand.New(rand.NewSource(seed))
	return convCase{
		x:    New(xShape...).RandN(rng, 1),
		w:    New(wShape...).RandN(rng, 1),
		bias: New(wShape[0]).RandN(rng, 1),
		spec: UniformConv(len(xShape)-2, stride, pad),
	}
}

func conv3x3() convCase {
	return newConvCase(1, []int{8, 16, 32, 32}, []int{32, 16, 3, 3}, 1, 1)
}

func conv1x1() convCase {
	return newConvCase(8, []int{8, 32, 16, 16}, []int{64, 32, 1, 1}, 1, 0)
}

func conv3D() convCase {
	return newConvCase(2, []int{2, 4, 12, 12, 12}, []int{8, 4, 3, 3, 3}, 1, 1)
}

func conv3DStrided() convCase {
	return newConvCase(9, []int{2, 4, 16, 16, 16}, []int{8, 4, 3, 3, 3}, 2, 1)
}

// convTiny3D is Tiny3D's first layer and convTinyCNN tinycnn's second,
// at batch 8: output rows of 8 and 16 floats, the short-row regime where
// the walk's per-run cost, not the GEMM, bounds the kernels.
func convTiny3D() convCase {
	return newConvCase(11, []int{8, 2, 8, 8, 8}, []int{4, 2, 3, 3, 3}, 1, 1)
}

func convTinyCNN() convCase {
	return newConvCase(12, []int{8, 8, 16, 16}, []int{8, 8, 3, 3}, 1, 1)
}

// dyOf returns an upstream gradient for c. Dense is the forward output
// itself; sparse keeps a seeded quarter of it, the density a gradient has
// after a ReLU and a 2x2 max-pool — the only kind a training run feeds
// the backward kernels.
func (c convCase) dyOf(sparse bool) *Tensor {
	dy := ConvForward(c.x, c.w, c.bias, c.spec)
	if sparse {
		rng := rand.New(rand.NewSource(10))
		for i := range dy.data {
			if rng.Intn(4) != 0 {
				dy.data[i] = 0
			}
		}
	}
	return dy
}

// run times op and reports its allocations and GFLOP/s. The FLOPs are
// the dense count of the shapes (2·N·F·out·C·k), the same for all three
// kernels, whatever zeros dy holds.
func (c convCase) run(b *testing.B, op func()) {
	b.Helper()
	y := ConvForward(c.x, c.w, nil, c.spec)
	flops := 2 * float64(y.Len()) * float64(c.w.Len()/c.w.Dim(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// bothPaths runs body as a simd=on and a simd=off sub-benchmark, so the
// kernel-level SIMD ratio is one -bench run; simd=on is skipped on a CPU
// without AVX2.
func bothPaths(b *testing.B, body func(b *testing.B)) {
	for _, on := range []bool{true, false} {
		name := map[bool]string{true: "simd=on", false: "simd=off"}[on]
		b.Run(name, func(b *testing.B) {
			if on && !simdDetected {
				b.Skip("no AVX2 on this CPU")
			}
			defer setSIMD(on)()
			body(b)
		})
	}
}

func benchConvForward(b *testing.B, c convCase) {
	bothPaths(b, func(b *testing.B) {
		c.run(b, func() { ConvForward(c.x, c.w, c.bias, c.spec) })
	})
}

func BenchmarkConvForward(b *testing.B)          { benchConvForward(b, conv3x3()) }
func BenchmarkConv1x1Forward(b *testing.B)       { benchConvForward(b, conv1x1()) }
func BenchmarkConv3DForward(b *testing.B)        { benchConvForward(b, conv3D()) }
func BenchmarkConv3DStridedForward(b *testing.B) { benchConvForward(b, conv3DStrided()) }

func BenchmarkConvBackwardData(b *testing.B) {
	c := conv3x3()
	xShape := c.x.Shape()
	for _, sparse := range []bool{false, true} {
		dy := c.dyOf(sparse)
		b.Run(fmt.Sprintf("sparse=%v", sparse), func(b *testing.B) {
			bothPaths(b, func(b *testing.B) {
				c.run(b, func() { ConvBackwardData(dy, c.w, xShape, c.spec) })
			})
		})
	}
}

func BenchmarkConvBackwardWeight(b *testing.B) {
	c := conv3x3()
	wShape := c.w.Shape()
	for _, sparse := range []bool{false, true} {
		dy := c.dyOf(sparse)
		b.Run(fmt.Sprintf("sparse=%v", sparse), func(b *testing.B) {
			bothPaths(b, func(b *testing.B) {
				c.run(b, func() { ConvBackwardWeight(dy, c.x, wShape, c.spec) })
			})
		})
	}
}

// BenchmarkConvShortRows runs all three kernels, backward on the
// sparse dy, on the short-row geometries.
func BenchmarkConvShortRows(b *testing.B) {
	for _, g := range []struct {
		name string
		c    convCase
	}{{"tiny3d", convTiny3D()}, {"tinycnn", convTinyCNN()}} {
		c := g.c
		dy := c.dyOf(true)
		xShape, wShape := c.x.Shape(), c.w.Shape()
		for _, k := range []struct {
			name string
			op   func()
		}{
			{"forward", func() { ConvForward(c.x, c.w, c.bias, c.spec) }},
			{"backward-data", func() { ConvBackwardData(dy, c.w, xShape, c.spec) }},
			{"backward-weight", func() { ConvBackwardWeight(dy, c.x, wShape, c.spec) }},
		} {
			b.Run(g.name+"/"+k.name, func(b *testing.B) {
				bothPaths(b, func(b *testing.B) { c.run(b, k.op) })
			})
		}
	}
}

func BenchmarkPoolForward(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := New(8, 32, 32, 32).RandN(rng, 1)
	spec := UniformPool(MaxPool, 2, 2, 2, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PoolForward(x, spec)
	}
}

// BenchmarkPoolBackward feeds each kind the gradient of its own forward
// output.
func BenchmarkPoolBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := New(8, 32, 32, 32).RandN(rng, 1)
	for _, kind := range []PoolKind{MaxPool, AvgPool} {
		spec := UniformPool(kind, 2, 2, 2, 0)
		dy, argmax := PoolForward(x, spec)
		b.Run(map[PoolKind]string{MaxPool: "max", AvgPool: "avg"}[kind], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				PoolBackward(dy, x.Shape(), spec, argmax)
			}
		})
	}
}

// BenchmarkReLU runs forward and backward on normal inputs, half of
// them negative: the sign a branch would have to predict is random.
func BenchmarkReLU(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	x := New(8, 32, 32, 32).RandN(rng, 1)
	dy := New(8, 32, 32, 32).RandN(rng, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReLUForward(x)
		ReLUBackward(dy, x)
	}
}

func BenchmarkBNForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := New(16, 32, 16, 16).RandN(rng, 1)
	gamma := New(32)
	gamma.Fill(1)
	beta := New(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y, st := BNForward(x, gamma, beta, 1e-5)
		BNBackward(y, gamma, st)
	}
}

// BenchmarkFC runs the fully-connected kernels on bench-fcnet's hidden
// layer (1024 × 1024) at the per-PE batches its plans give (1, 2, 4),
// through the …Into forms with a kept Scratch, x and dy ReLU-sparse as
// training feeds them; and SGDStep on bench-fcnet's 1.2 M parameters.
func BenchmarkFC(b *testing.B) {
	const in, out = 1024, 1024
	rng := rand.New(rand.NewSource(5))
	w := New(out, in).RandN(rng, 1)
	bias := New(out).RandN(rng, 1)
	for _, n := range []int{1, 2, 4} {
		x := ReLUForward(New(n, in).RandN(rng, 1))
		dy := ReLUForward(New(n, out).RandN(rng, 1))
		y, dx, dw, db := New(n, out), New(n, in), New(out, in), New(out)
		var s Scratch
		FCForwardInto(y, x, w, bias, &s) // grows s
		b.Run(fmt.Sprintf("forward/n=%d", n), func(b *testing.B) {
			bothPaths(b, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					FCForwardInto(y, x, w, bias, &s)
				}
			})
		})
		b.Run(fmt.Sprintf("backward/n=%d", n), func(b *testing.B) {
			bothPaths(b, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					FCBackwardGradsInto(dx, dw, db, dy, x, w)
				}
			})
		})
	}
	b.Run("sgd", func(b *testing.B) {
		w, dw := New(1_200_000).RandN(rng, 1), New(1_200_000).RandN(rng, 1)
		bothPaths(b, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				SGDStep(w, dw, 1e-6)
			}
		})
	})
}

func BenchmarkSplitConcat(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x := New(16, 64, 32, 32).RandN(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := x.Split(1, 4)
		Concat(1, parts...)
	}
}

func BenchmarkSoftmaxCrossEntropy(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	logits := New(64, 1000).RandN(rng, 1)
	labels := make([]int, 64)
	for i := range labels {
		labels[i] = rng.Intn(1000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SoftmaxCrossEntropy(logits, labels)
	}
}
