package tensor

import (
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
