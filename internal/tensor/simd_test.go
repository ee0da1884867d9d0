package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// addTo on lengths around the 4-lane step, with dst and src cut from one
// array and dst starting at offsets 0 and 1 (unaligned): the element
// just past dst keeps its sentinel, every element outside dst keeps its
// value, and every dst element is the scalar loop's bits. The sentinel
// is finite (NaN + x keeps NaN's bits, hiding a stray write).
func TestAddToBoundsAndBits(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	const sentinel = 0.5
	for n := 0; n <= 17; n++ {
		for _, off := range []int{0, 1} {
			buf := make([]float64, off+2*n+1)
			for i := range buf {
				buf[i] = rng.NormFloat64()
			}
			buf[off+n] = sentinel
			want := append([]float64(nil), buf...)
			restore := setSIMD(false)
			addTo(want[off:off+n], want[off+n+1:])
			restore()

			addTo(buf[off:off+n], buf[off+n+1:])
			for i := range buf {
				if math.Float64bits(buf[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d off=%d: buf[%d] = %x, scalar loop %x", n, off, i, math.Float64bits(buf[i]), math.Float64bits(want[i]))
				}
			}
			if buf[off+n] != sentinel {
				t.Fatalf("n=%d off=%d: addTo wrote past dst", n, off)
			}
		}
	}
}

// gemmRows and gemmCols on lane and column counts around the 4 × 8 SIMD
// block, reduction lengths from 0, and strides wider than the block,
// with y cut at an unaligned offset from a sentinel-filled array: every
// output is the direct sum's bits on both paths, and no element outside
// the outputs moves. The sentinel is finite (NaN + x keeps NaN's bits,
// hiding a stray write).
func TestGemmKernelsBoundsAndBits(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const sentinel = 0.5
	randn := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = rng.NormFloat64()
		}
		return s
	}
	for trial := 0; trial < 400; trial++ {
		lanes, cols, n := 1+rng.Intn(9), 1+rng.Intn(17), rng.Intn(12)
		ys := cols + rng.Intn(3)
		off := rng.Intn(2)
		buf := make([]float64, off+(lanes-1)*ys+cols+1)
		for i := range buf {
			buf[i] = sentinel
		}
		y := buf[off:]
		rows := trial%2 == 0
		var want []float64
		var call func()
		if rows {
			// gemmRows, b either lane-major (forward) or step-major
			// (backward-data).
			as := cols + rng.Intn(3)
			a := randn(max(0, (n-1)*as+cols))
			bl, bi := max(1, n), 1
			if rng.Intn(2) == 0 {
				bl, bi = 1, lanes
			}
			b := randn(max(1, (lanes-1)*bl+max(0, n-1)*bi+1))
			var init []float64
			if rng.Intn(2) == 0 {
				init = randn(lanes)
			}
			want = append([]float64(nil), y...)
			for l := 0; l < lanes; l++ {
				for c := 0; c < cols; c++ {
					v := 0.0
					if init != nil {
						v = init[l]
					}
					for i := 0; i < n; i++ {
						v += a[i*as+c] * b[l*bl+i*bi]
					}
					want[l*ys+c] = v
				}
			}
			call = func() { gemmRows(y, ys, lanes, cols, a, as, b, bl, bi, n, init) }
		} else {
			n++
			as, bl := n+rng.Intn(3), n+rng.Intn(3)
			a := randn((cols-1)*as + n)
			b := randn((lanes-1)*bl + n)
			pack, steps := make([]float64, 4*n), make([]int, n)
			// Zero b values, some whole steps of every lane, so the
			// packing skips steps.
			for i := range b {
				if rng.Intn(3) == 0 {
					b[i] = 0
				}
			}
			for l := 0; l < lanes; l++ {
				for c := 0; c < cols; c++ {
					y[l*ys+c] = rng.NormFloat64()
				}
			}
			want = append([]float64(nil), y...)
			for l := 0; l < lanes; l++ {
				for c := 0; c < cols; c++ {
					v := want[l*ys+c]
					for i := 0; i < n; i++ {
						v += a[c*as+i] * b[l*bl+i]
					}
					want[l*ys+c] = v
				}
			}
			call = func() { gemmCols(y, ys, lanes, cols, a, as, b, bl, n, pack, steps) }
		}
		start := append([]float64(nil), buf...)
		for _, simd := range []bool{true, false} {
			copy(buf, start)
			restore := setSIMD(simd)
			call()
			restore()
			for i, v := range want {
				if math.Float64bits(y[i]) != math.Float64bits(v) {
					t.Fatalf("trial %d rows=%v simd=%v lanes=%d cols=%d n=%d: y[%d] = %x, want %x",
						trial, rows, simd, lanes, cols, n, i, math.Float64bits(y[i]), math.Float64bits(v))
				}
			}
			for i := 0; i < off; i++ {
				if buf[i] != sentinel {
					t.Fatalf("trial %d rows=%v simd=%v: wrote before y", trial, rows, simd)
				}
			}
		}
	}
}

// axpy on lengths around the 8- and 4-lane steps, with dst and src cut
// from one array and dst starting at offsets 0 and 1 (unaligned): the
// element just past dst keeps its sentinel, every element outside dst
// keeps its value, and every dst element on both paths is the bits of
// one rounded product and one rounded sum (a fused multiply-add rounds
// once and fails here).
func TestAxpyBoundsAndBits(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	const sentinel = 0.5
	for n := 0; n <= 17; n++ {
		for _, off := range []int{0, 1} {
			buf := make([]float64, off+2*n+1)
			for i := range buf {
				buf[i] = rng.NormFloat64()
			}
			buf[off+n] = sentinel
			s := rng.NormFloat64()
			want := append([]float64(nil), buf...)
			for i := 0; i < n; i++ {
				want[off+i] += float64(s * want[off+n+1+i]) // the conversion forbids fusing
			}
			for _, simd := range []bool{true, false} {
				got := append([]float64(nil), buf...)
				restore := setSIMD(simd)
				axpy(got[off:off+n], got[off+n+1:], s)
				restore()
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("n=%d off=%d simd=%v: buf[%d] = %x, want %x", n, off, simd, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

// FCForwardInto, FCBackwardGradsInto and SGDStep give the same bits with
// SIMD on and off, over every batch from 1 to 9 (the 4-lane blocks and
// the padded rest), In and Out off the 4- and 8-wide blocks, ReLU-sparse
// x and dy (packed steps skipped, dy rows skipped), with and without dx
// and bias, into NaN-filled destinations, whatever Scratch is lent.
func TestFCKernelsSIMDBits(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for n := 1; n <= 9; n++ {
		for _, g := range []struct{ in, out int }{{13, 37}, {37, 13}} {
			x := ReLUForward(New(n, g.in).RandN(rng, 1))
			w := New(g.out, g.in).RandN(rng, 1)
			dy := ReLUForward(New(n, g.out).RandN(rng, 1))
			var bias *Tensor
			if n%2 == 0 {
				bias = New(g.out).RandN(rng, 1)
			}
			run := func(simd bool) map[string]*Tensor {
				defer setSIMD(simd)()
				what := fmt.Sprintf("n=%d in=%d out=%d simd=%v", n, g.in, g.out, simd)
				y := nanFilled(n, g.out)
				FCForwardInto(y, x, w, bias)
				for name, lend := range lendings() {
					yl := nanFilled(n, g.out)
					FCForwardInto(yl, x, w, bias, lend()...)
					assertSameBits(t, what+" y, scratch "+name, yl, y)
				}
				dx, dw, db := nanFilled(n, g.in), nanFilled(g.out, g.in), nanFilled(g.out)
				FCBackwardGradsInto(dx, dw, db, dy, x, w)
				dwOnly, dbOnly := nanFilled(g.out, g.in), nanFilled(g.out)
				FCBackwardGradsInto(nil, dwOnly, dbOnly, dy, x, w)
				assertSameBits(t, what+" dw without dx", dwOnly, dw)
				assertSameBits(t, what+" db without dx", dbOnly, db)
				stepped := w.Clone()
				SGDStep(stepped, dw, 0.1)
				return map[string]*Tensor{"y": y, "dx": dx, "dw": dw, "db": db, "stepped w": stepped}
			}
			on, off := run(true), run(false)
			for name, v := range off {
				assertSameBits(t, fmt.Sprintf("n=%d in=%d out=%d %s, simd on against off", n, g.in, g.out, name), on[name], v)
			}
		}
	}
}

// SGDStep runs w + (−lr)·dw, which is w − lr·dw bit for bit: on both
// paths, over signed zeros, infinities and NaNs in w and dw and over
// ordinary values, every
// element is the bits of w − lr·dw as two rounded operations. Where w
// and lr·dw are both NaN the step gives a NaN, but which of the two the
// CPU returns follows the add's operand order, which the compiler may
// swap in the scalar loop.
func TestSGDStepBitsOnSpecialValues(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 3e-300, math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN()}
	k := len(vals)
	// Every pair, then ordinary values, which a fused multiply-add
	// rounds differently.
	rng := rand.New(rand.NewSource(42))
	w0, dw := New(k*k+13).RandN(rng, 1), New(k*k+13).RandN(rng, 1)
	for i := 0; i < k*k; i++ {
		w0.data[i], dw.data[i] = vals[i/k], vals[i%k]
	}
	for _, lr := range []float64{0.1, 1, math.Copysign(0, -1)} {
		want := w0.Clone()
		for i, g := range dw.data {
			want.data[i] -= float64(lr * g)
		}
		for _, simd := range []bool{true, false} {
			w := w0.Clone()
			restore := setSIMD(simd)
			SGDStep(w, dw, lr)
			restore()
			for i, v := range want.data {
				got := w.data[i]
				if math.IsNaN(w0.data[i]) && math.IsNaN(lr*dw.data[i]) {
					if !math.IsNaN(got) {
						t.Fatalf("lr=%v simd=%v: NaN stepped by NaN to %v", lr, simd, got)
					}
					continue
				}
				if math.Float64bits(got) != math.Float64bits(v) {
					t.Fatalf("lr=%v simd=%v: w=%v dw=%v steps to %x, want %x", lr, simd, w0.data[i], dw.data[i], math.Float64bits(got), math.Float64bits(v))
				}
			}
		}
	}
}
