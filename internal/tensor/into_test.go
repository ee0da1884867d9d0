package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// The destination-taking weight-gradient kernels are held, bit for bit,
// to the allocating loops they replaced — kept here as references — with
// every destination pre-filled with NaN, so an element a kernel fails to
// overwrite fails the comparison.

// refFCBackward is the samples-outer loop FCBackward replaced: fresh
// zeroed dw and db, every element summed in sample order, zero dy
// skipped.
func refFCBackward(dy, x, w *Tensor, xShape []int) (dx, dw, db *Tensor) {
	n := x.shape[0]
	in := x.Len() / n
	out := w.shape[0]
	dx = New(xShape...)
	dw = New(w.shape...)
	db = New(out)
	for ni := 0; ni < n; ni++ {
		xRow := x.data[ni*in : (ni+1)*in]
		dxRow := dx.data[ni*in : (ni+1)*in]
		for oi := 0; oi < out; oi++ {
			g := dy.data[ni*out+oi]
			if g == 0 {
				continue
			}
			db.data[oi] += g
			wRow := w.data[oi*in : (oi+1)*in]
			dwRow := dw.data[oi*in : (oi+1)*in]
			for k := range wRow {
				dxRow[k] += g * wRow[k]
				dwRow[k] += g * xRow[k]
			}
		}
	}
	return dx, dw, db
}

// refBNBackwardReduce is the loop BNBackwardReduceInto runs, into fresh
// tensors.
func refBNBackwardReduce(dy *Tensor, st *BNState) (sumDyXhat, sumDy *Tensor) {
	n, c, spatial := splitActShape(dy)
	vol := Volume(spatial)
	sumDyXhat = New(c)
	sumDy = New(c)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * vol
			for i := 0; i < vol; i++ {
				sumDyXhat.data[ci] += dy.data[base+i] * st.XHat.data[base+i]
				sumDy.data[ci] += dy.data[base+i]
			}
		}
	}
	return sumDyXhat, sumDy
}

// nanFilled returns a tensor of the given shape holding NaN everywhere.
func nanFilled(shape ...int) *Tensor {
	t := New(shape...)
	t.Fill(math.NaN())
	return t
}

// assertSameBits fails unless got and want hold the same bits element
// by element (math.Float64bits, so a zero's sign counts). The references
// hold no NaN, so a surviving pre-fill fails too.
func assertSameBits(t *testing.T, what string, got, want *Tensor) {
	t.Helper()
	if !EqualShapes(got.shape, want.shape) {
		t.Fatalf("%s: shape %v, reference %v", what, got.shape, want.shape)
	}
	for i, v := range want.data {
		if math.Float64bits(got.data[i]) != math.Float64bits(v) {
			t.Fatalf("%s[%d] = %.17g, reference %.17g", what, i, got.data[i], v)
		}
	}
}

// sparsify zeroes dy entries with probability 1-density (the ReLU-sparse
// gradient), then clears one whole sample and one whole output column —
// the rows whose dw/db a kernel must still overwrite.
func sparsify(rng *rand.Rand, dy *Tensor, density float64) {
	for i := range dy.data {
		if rng.Float64() >= density {
			dy.data[i] = 0
		}
	}
	n, out := dy.shape[0], dy.Len()/dy.shape[0]
	zeroSample, zeroCol := rng.Intn(n), rng.Intn(out)
	for i := range dy.data {
		if i/out == zeroSample || i%out == zeroCol {
			dy.data[i] = 0
		}
	}
}

func TestFCBackwardIntoBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 2, 4, 7} {
		for _, g := range []struct{ in, out int }{{1, 1}, {7, 3}, {33, 5}, {130, 10}, {64, 7}} {
			for _, density := range []float64{1, 0.5, 0} {
				x := New(n, g.in).RandN(rng, 1)
				w := New(g.out, g.in).RandN(rng, 1)
				dy := New(n, g.out).RandN(rng, 1)
				if density < 1 {
					sparsify(rng, dy, density)
				}
				dw, db := nanFilled(g.out, g.in), nanFilled(g.out)
				dx := FCBackwardInto(dw, db, dy, x, w, x.Shape())
				dxRef, dwRef, dbRef := refFCBackward(dy, x, w, x.Shape())
				assertSameBits(t, "dx", dx, dxRef)
				assertSameBits(t, "dw", dw, dwRef)
				assertSameBits(t, "db", db, dbRef)
			}
		}
	}
}

func TestConvBackwardWeightIntoBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 120; trial++ {
		g := randomConvGeom(rng)
		g.n = []int{1, 2, 4, 7}[trial%4]
		x := New(append([]int{g.n, g.c}, g.in...)...).RandN(rng, 1)
		wShape := append([]int{g.f, g.c}, g.k...)
		spec := g.spec()
		dy := New(ConvForward(x, New(wShape...), nil, spec).Shape()...).RandN(rng, 1)
		if density := []float64{1, 0.5, 0}[trial%3]; density < 1 {
			sparsify(rng, dy, density)
		}
		dw, db := nanFilled(wShape...), nanFilled(g.f)
		ConvBackwardWeightInto(dw, db, dy, x, spec)
		dwRef, dbRef := refConvBackwardWeight(dy, x, wShape, spec)
		assertSameBits(t, "dw", dw, dwRef)
		assertSameBits(t, "db", db, dbRef)
	}
}

func TestBNBackwardReduceIntoBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{1, 2, 4, 7} {
		for _, shape := range [][]int{{3}, {5, 3, 3}, {2, 2, 3, 2}} {
			x := New(append([]int{n}, shape...)...).RandN(rng, 1)
			c := shape[0]
			gamma, beta := New(c).RandU(rng, 0.5, 1.5), New(c).RandN(rng, 0.5)
			_, st := BNForward(x, gamma, beta, 1e-5)
			dy := New(x.Shape()...).RandN(rng, 1)
			if n > 1 {
				sparsify(rng, dy, 0.5)
			}
			dgamma, dbeta := nanFilled(c), nanFilled(c)
			BNBackwardReduceInto(dgamma, dbeta, dy, st, nil)
			gRef, bRef := refBNBackwardReduce(dy, st)
			assertSameBits(t, "dgamma", dgamma, gRef)
			assertSameBits(t, "dbeta", dbeta, bRef)
			dx, dg2, db2 := BNBackward(dy, gamma, st)
			dxRef := nanFilled(x.Shape()...)
			BNBackwardApplyInto(dxRef, dy, gamma, st, gRef, bRef)
			assertSameBits(t, "dx", dx, dxRef)
			assertSameBits(t, "BNBackward dgamma", dg2, gRef)
			assertSameBits(t, "BNBackward dbeta", db2, bRef)
		}
	}
}

func TestBackwardIntoRejectsMisshapedDestination(t *testing.T) {
	x, w, dy := New(2, 6), New(3, 6), New(2, 3)
	cx, cdy := New(2, 3, 4, 4), New(2, 5, 4, 4)
	spec := UniformConv(2, 1, 1)
	_, st := BNForward(cx, New(3), New(3), 1e-5)
	for name, call := range map[string]func(){
		"fc dw transposed":  func() { FCBackwardInto(New(6, 3), New(3), dy, x, w, x.Shape()) },
		"fc dw too long":    func() { FCBackwardInto(New(4, 6), New(3), dy, x, w, x.Shape()) },
		"fc db too short":   func() { FCBackwardInto(New(3, 6), New(2), dy, x, w, x.Shape()) },
		"conv dw filters":   func() { ConvBackwardWeightInto(New(4, 3, 3, 3), New(5), cdy, cx, spec) },
		"conv db too long":  func() { ConvBackwardWeightInto(New(5, 3, 3, 3), New(6), cdy, cx, spec) },
		"bn dgamma short":   func() { BNBackwardReduceInto(New(2), New(3), cx, st, nil) },
		"bn dbeta too long": func() { BNBackwardReduceInto(New(3), New(4), cx, st, nil) },
		"fc dx rows":        func() { FCBackwardGradsInto(New(3, 4), New(3, 6), New(3), dy, x, w) },
		"fc dx too long":    func() { FCBackwardGradsInto(New(2, 7), New(3, 6), New(3), dy, x, w) },
		"conv dx channels":  func() { ConvBackwardDataInto(New(2, 4, 4, 4), cdy, New(5, 3, 3, 3), spec) },
		"conv dx spatial":   func() { ConvBackwardDataInto(New(2, 3, 5, 4), cdy, New(5, 3, 3, 3), spec) },
		"pool dx spatial":   func() { PoolBackwardInto(New(2, 3, 6, 6), New(2, 3, 2, 2), UniformPool(AvgPool, 2, 2, 2, 0), nil) },
		"relu dx shape":     func() { ReLUBackwardInto(New(2, 3, 4, 3), cx, cx) },
		"bn dx shape":       func() { BNBackwardApplyInto(New(2, 3, 4), cx, New(3), st, New(3), New(3)) },
	} {
		t.Run(name, func(t *testing.T) { expectKernelPanic(t, call) })
	}
}

func TestForwardIntoRejectsMisshapedDestination(t *testing.T) {
	x, w := New(2, 6), New(3, 6)
	cx, cw := New(2, 3, 4, 4), New(5, 3, 3, 3)
	spec := UniformConv(2, 1, 1)
	maxPool := UniformPool(MaxPool, 2, 2, 2, 0)
	bnState := func(c int) *BNState { return &BNState{Mean: New(c), Var: New(c), XHat: New(2, 3, 4, 4)} }
	for name, call := range map[string]func(){
		"conv y filters":    func() { ConvForwardInto(New(2, 4, 4, 4), cx, cw, nil, spec) },
		"conv y spatial":    func() { ConvForwardInto(New(2, 5, 4, 3), cx, cw, nil, spec) },
		"conv y rank":       func() { ConvForwardInto(New(2, 5, 16), cx, cw, nil, spec) },
		"pool y spatial":    func() { PoolForwardInto(New(2, 3, 2, 3), make([]int, 36), cx, maxPool) },
		"pool argmax short": func() { PoolForwardInto(New(2, 3, 2, 2), make([]int, 23), cx, maxPool) },
		"relu y shape":      func() { ReLUForwardInto(New(2, 3, 16), cx) },
		"fc y transposed":   func() { FCForwardInto(New(3, 2), x, w, nil) },
		"bn y shape":        func() { BNForwardInto(New(2, 3, 4, 5), bnState(3), cx, New(3), New(3), 1e-5, nil) },
		"bn mean short":     func() { BNForwardInto(New(2, 3, 4, 4), bnState(2), cx, New(3), New(3), 1e-5, nil) },
		"bn xhat wrong shape": func() {
			BNForwardInto(New(2, 3, 4, 4), &BNState{Mean: New(3), Var: New(3), XHat: New(2, 3, 16)}, cx, New(3), New(3), 1e-5, nil)
		},
	} {
		t.Run(name, func(t *testing.T) { expectKernelPanic(t, call) })
	}
}

// expectKernelPanic fails unless call panics with the kernel's own shape
// check, not an index panic deep in a loop after part of the destination
// was written.
func expectKernelPanic(t *testing.T, call func()) {
	t.Helper()
	defer func() {
		if msg, ok := recover().(string); !ok || !strings.HasPrefix(msg, "tensor: ") {
			t.Fatalf("want the kernel's shape-mismatch panic, got %v", msg)
		}
	}()
	call()
}

// dirtyBits are the NaNs a dirty destination holds: both signs, quiet
// and signalling, several payloads. A kernel that reads an element
// before writing it passes one on, and assertSameBits reports it.
var dirtyBits = []uint64{0x7FF8000000000001, 0xFFF8000000000000, 0x7FF4000000000ABC, 0xFFF0000000000001, 0x7FF8DEADBEEF0000}

func poison(v []float64) {
	for i := range v {
		v[i] = math.Float64frombits(dirtyBits[i%len(dirtyBits)])
	}
}

// dirtyLike returns a tensor shaped like t holding dirtyBits.
func dirtyLike(t *Tensor) *Tensor {
	d := New(t.shape...)
	poison(d.data)
	return d
}

// dirtyArgmax returns n argmax entries no window produces.
func dirtyArgmax(n int) []int {
	a := make([]int, n)
	for i := range a {
		a[i] = []int{-1, 7, 1 << 40, -9}[i%4]
	}
	return a
}

// scratchFloats sizes dirtyScratch above every call of these tests, so
// the kernels reuse it instead of growing it.
const scratchFloats = 1 << 16

// dirtyScratch returns a Scratch with poisoned buffers larger than any
// call here needs.
func dirtyScratch() *Scratch {
	s := &Scratch{floats: make([]float64, scratchFloats), steps: make([]int, scratchFloats)}
	poison(s.floats)
	for i := range s.steps {
		s.steps[i] = -1 << 40
	}
	return s
}

// lendings are the ways a caller passes a kernel its scratch: none, a
// nil one, and a dirty one of its own, lent to every call of a case.
func lendings() map[string]func() []*Scratch {
	return map[string]func() []*Scratch{
		"none":  func() []*Scratch { return nil },
		"nil":   func() []*Scratch { return []*Scratch{nil} },
		"dirty": func() []*Scratch { return []*Scratch{dirtyScratch()} },
	}
}

// checkReused fails unless a lent scratch kept its buffers: the kernels
// ran on its dirty contents rather than on fresh memory.
func checkReused(t *testing.T, what string, lent []*Scratch) {
	t.Helper()
	if len(lent) > 0 && lent[0] != nil && (cap(lent[0].floats) != scratchFloats || cap(lent[0].steps) != scratchFloats) {
		t.Fatalf("%s: the kernels regrew the lent scratch", what)
	}
}

// Every Into kernel writes every element of its destinations whatever
// they held: each is held, bit for bit, to its allocating form with its
// destinations (and argmax) dirty and, for the window kernels, with a
// poisoned Scratch lent to all of a layer's calls in a training step's
// order, so a forgotten clear of an accumulation or a plane border left
// unrefilled shows. Convolution geometries are random (rank 1–3, stride
// 1–3, pads from 0), pooling covers both kinds over the same ranges,
// and every case runs with SIMD on and off.
func TestIntoKernelsOverwriteDirtyDestinations(t *testing.T) {
	for _, simd := range []bool{true, false} {
		t.Run(fmt.Sprintf("simd=%v", simd), func(t *testing.T) {
			defer setSIMD(simd)()
			rng := rand.New(rand.NewSource(31))
			for trial := 0; trial < 60; trial++ {
				g := randomConvGeom(rng)
				g.n = 1 + trial%3
				x := New(append([]int{g.n, g.c}, g.in...)...).RandN(rng, 1)
				w := New(append([]int{g.f, g.c}, g.k...)...).RandN(rng, 1)
				b := New(g.f).RandN(rng, 1)
				spec := g.spec()
				y := ConvForward(x, w, b, spec)
				dy := makeDy(rng, y.Shape(), dyKinds[trial%len(dyKinds)])
				dx := ConvBackwardData(dy, w, x.Shape(), spec)
				dw, db := ConvBackwardWeight(dy, x, w.Shape(), spec)
				for name, lend := range lendings() {
					what := fmt.Sprintf("conv trial %d %+v, scratch %s", trial, g, name)
					lent := lend()
					yd, dxd, dwd, dbd := dirtyLike(y), dirtyLike(dx), dirtyLike(dw), dirtyLike(db)
					ConvForwardInto(yd, x, w, b, spec, lent...)
					ConvBackwardDataInto(dxd, dy, w, spec, lent...)
					ConvBackwardWeightInto(dwd, dbd, dy, x, spec, lent...)
					assertSameBits(t, what+" y", yd, y)
					assertSameBits(t, what+" dx", dxd, dx)
					assertSameBits(t, what+" dw", dwd, dw)
					assertSameBits(t, what+" db", dbd, db)
					// The next step's forward reads planes the data
					// backward has just scattered into.
					yd = dirtyLike(y)
					ConvForwardInto(yd, x, w, b, spec, lent...)
					assertSameBits(t, what+" second y", yd, y)
					checkReused(t, what, lent)
				}
			}
			for trial := 0; trial < 60; trial++ {
				rank := 1 + rng.Intn(3)
				spec := PoolSpec{Kind: PoolKind(trial % 2)}
				shape := []int{1 + rng.Intn(3), 1 + rng.Intn(3)}
				for d := 0; d < rank; d++ {
					win, stride := 1+rng.Intn(3), 1+rng.Intn(3)
					pad := rng.Intn(win)
					if trial/2%2 == 1 {
						pad = 0
					}
					shape = append(shape, max(1, win-2*pad)+rng.Intn(5))
					spec.Window = append(spec.Window, win)
					spec.Stride = append(spec.Stride, stride)
					spec.Pad = append(spec.Pad, pad)
				}
				x := New(shape...).RandN(rng, 1)
				y, arg := PoolForward(x, spec)
				dy := makeDy(rng, y.Shape(), dyKinds[trial%len(dyKinds)])
				dx := PoolBackward(dy, shape, spec, arg)
				for name, lend := range lendings() {
					what := fmt.Sprintf("pool trial %d %+v on %v, scratch %s", trial, spec, shape, name)
					lent := lend()
					var argd []int
					if spec.Kind == MaxPool {
						argd = dirtyArgmax(len(arg))
					}
					yd, dxd := dirtyLike(y), dirtyLike(dx)
					PoolForwardInto(yd, argd, x, spec, lent...)
					PoolBackwardInto(dxd, dy, spec, argd, lent...)
					assertSameBits(t, what+" y", yd, y)
					if !reflect.DeepEqual(argd, arg) {
						t.Fatalf("%s: argmax %v, allocating form %v", what, argd, arg)
					}
					assertSameBits(t, what+" dx", dxd, dx)
					yd = dirtyLike(y)
					PoolForwardInto(yd, argd, x, spec, lent...)
					assertSameBits(t, what+" second y", yd, y)
					checkReused(t, what, lent)
				}
			}
		})
	}

	rng := rand.New(rand.NewSource(32))
	x := New(3, 4, 5).RandN(rng, 1)
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0} {
		x.data[3*i] = v
	}
	dy := New(3, 4, 5).RandN(rng, 1)
	yd, dxd := dirtyLike(x), dirtyLike(x)
	ReLUForwardInto(yd, x)
	ReLUBackwardInto(dxd, dy, x)
	assertSameBits(t, "relu y", yd, ReLUForward(x))
	assertSameBits(t, "relu dx", dxd, ReLUBackward(dy, x))

	for _, withBias := range []bool{true, false} {
		xf, wf := New(4, 3, 3).RandN(rng, 1), New(7, 9).RandN(rng, 1)
		var bf *Tensor
		if withBias {
			bf = New(7).RandN(rng, 1)
		}
		flat := xf.Reshape(4, 9)
		yf := FCForward(flat, wf, bf)
		yfd := dirtyLike(yf)
		FCForwardInto(yfd, flat, wf, bf)
		assertSameBits(t, "fc y", yfd, yf)
		dyf := New(4, 7).RandN(rng, 1)
		sparsify(rng, dyf, 0.5)
		dxf, dwf, dbf := FCBackward(dyf, flat, wf, xf.Shape())
		dxfd, dwfd, dbfd := dirtyLike(dxf), dirtyLike(dwf), dirtyLike(dbf)
		FCBackwardGradsInto(dxfd, dwfd, dbfd, dyf, flat, wf)
		assertSameBits(t, "fc dx", dxfd, dxf)
		assertSameBits(t, "fc dw", dwfd, dwf)
		assertSameBits(t, "fc db", dbfd, dbf)
		dwfd, dbfd = dirtyLike(dwf), dirtyLike(dbf)
		FCBackwardGradsInto(nil, dwfd, dbfd, dyf, flat, wf)
		assertSameBits(t, "fc dw without dx", dwfd, dwf)
		assertSameBits(t, "fc db without dx", dbfd, dbf)
	}

	xb := New(3, 2, 4, 3).RandN(rng, 1)
	gamma, beta := New(2).RandU(rng, 0.5, 1.5), New(2).RandN(rng, 0.5)
	yb, st := BNForward(xb, gamma, beta, 1e-5)
	ybd := dirtyLike(yb)
	std := &BNState{Mean: dirtyLike(st.Mean), Var: dirtyLike(st.Var), XHat: dirtyLike(st.XHat), Eps: math.NaN(), Count: -1}
	BNForwardInto(ybd, std, xb, gamma, beta, 1e-5, nil)
	assertSameBits(t, "bn y", ybd, yb)
	assertSameBits(t, "bn mean", std.Mean, st.Mean)
	assertSameBits(t, "bn var", std.Var, st.Var)
	assertSameBits(t, "bn xhat", std.XHat, st.XHat)
	if std.Eps != st.Eps || std.Count != st.Count {
		t.Fatalf("bn eps, count = %v, %d; allocating form %v, %d", std.Eps, std.Count, st.Eps, st.Count)
	}
	dyb := New(xb.Shape()...).RandN(rng, 1)
	dxb, sumDyXhat, sumDy := BNBackward(dyb, gamma, st)
	dxbd := dirtyLike(xb)
	BNBackwardApplyInto(dxbd, dyb, gamma, st, sumDyXhat, sumDy)
	assertSameBits(t, "bn dx", dxbd, dxb)
}
