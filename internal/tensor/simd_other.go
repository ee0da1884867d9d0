//go:build !amd64

package tensor

// useAVX2 is false off amd64: the convolution and fully-connected
// kernels and the SGD update run their scalar loops and never reach the
// entry points below.
var useAVX2 = false

func gemmRows4x8AVX2(y []float64, ys int, a []float64, as int, b []float64, bl, bi, n int, init *[4]float64) {
	panic("tensor: AVX2 kernel called off amd64")
}

func gemmCols4x8AVX2(y []float64, ys int, a []float64, as int, bp []float64, steps []int) {
	panic("tensor: AVX2 kernel called off amd64")
}

func addAVX2(dst, src []float64) {
	panic("tensor: AVX2 kernel called off amd64")
}

func axpyAVX2(dst, src []float64, s float64) {
	panic("tensor: AVX2 kernel called off amd64")
}
