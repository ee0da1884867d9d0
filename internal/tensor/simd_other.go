//go:build !amd64 || purego

package tensor

// useAVX2 is false off amd64, and on amd64 under the purego build tag
// (go test -tags purego runs the suites on the scalar loops): the
// convolution and fully-connected kernels and the SGD update run their
// scalar loops and never reach the entry points below.
var useAVX2 = false

func gemmRows4x8AVX2(y []float64, ys int, a []float64, as int, b []float64, bl, bi, n int, init *[4]float64) {
	panic("tensor: AVX2 kernel called in a build without simd_amd64.s")
}

func gemmCols4x8AVX2(y []float64, ys int, a []float64, as int, bp []float64, steps []int) {
	panic("tensor: AVX2 kernel called in a build without simd_amd64.s")
}

func addAVX2(dst, src []float64) {
	panic("tensor: AVX2 kernel called in a build without simd_amd64.s")
}

func axpyAVX2(dst, src []float64, s float64) {
	panic("tensor: AVX2 kernel called in a build without simd_amd64.s")
}
