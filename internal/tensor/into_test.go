package tensor

import (
	"math"
	"math/rand"
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

// refBNBackwardReduce is the loop BNBackwardReduce ran into fresh
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
			BNBackwardReduceInto(dgamma, dbeta, dy, st)
			gRef, bRef := refBNBackwardReduce(dy, st)
			assertSameBits(t, "dgamma", dgamma, gRef)
			assertSameBits(t, "dbeta", dbeta, bRef)
			dx, dg2, db2 := BNBackward(dy, gamma, st)
			assertSameBits(t, "dx", dx, BNBackwardApply(dy, gamma, st, gRef, bRef))
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
		"bn dgamma short":   func() { BNBackwardReduceInto(New(2), New(3), cx, st) },
		"bn dbeta too long": func() { BNBackwardReduceInto(New(3), New(4), cx, st) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				// The kernel's own shape check, not an index panic deep
				// in a loop after part of the destination was written.
				if msg, ok := recover().(string); !ok || !strings.HasPrefix(msg, "tensor: ") {
					t.Fatalf("want the kernel's shape-mismatch panic, got %v", msg)
				}
			}()
			call()
		})
	}
}
