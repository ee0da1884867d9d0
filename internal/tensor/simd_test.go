package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// axpy on lengths around the 4-lane step, with dst and src cut from one
// array and dst starting at offsets 0 and 1 (unaligned): the element
// just past dst keeps its sentinel, every element outside dst keeps its
// value, and every dst element is the scalar loop's bits. The sentinel
// is finite (NaN + x keeps NaN's bits, hiding a stray write), and one
// spare element past src keeps an overrun read inside the array.
func TestAxpyBoundsAndBits(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	const sentinel = 0.5
	for n := 0; n <= 17; n++ {
		for _, off := range []int{0, 1} {
			buf := make([]float64, off+2*n+2)
			for i := range buf {
				buf[i] = rng.NormFloat64()
			}
			buf[off+n] = sentinel
			a := rng.NormFloat64()
			want := append([]float64(nil), buf...)
			restore := setSIMD(false)
			axpy(want[off:off+n], a, want[off+n+1:off+2*n+1])
			restore()

			axpy(buf[off:off+n], a, buf[off+n+1:off+2*n+1])
			for i := range buf {
				if math.Float64bits(buf[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d off=%d: buf[%d] = %x, scalar loop %x", n, off, i, math.Float64bits(buf[i]), math.Float64bits(want[i]))
				}
			}
			if buf[off+n] != sentinel {
				t.Fatalf("n=%d off=%d: axpy wrote past dst", n, off)
			}
		}
	}
}
