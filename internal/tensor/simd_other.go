//go:build !amd64

package tensor

// useAVX2 is false off amd64: the convolution kernels run their scalar
// loops and never reach the entry points below.
var useAVX2 = false

func gemm4x8AVX2(y []float64, ys int, p, w []float64, bias *[4]float64) {
	panic("tensor: AVX2 kernel called off amd64")
}

func axpyAVX2(dst []float64, a float64, src []float64) {
	panic("tensor: AVX2 kernel called off amd64")
}
