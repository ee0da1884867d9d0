//go:build amd64 && !purego

package tensor

// useAVX2 routes the inner loops of the convolution and fully-connected
// kernels and of the SGD update to simd_amd64.s. It is read from the CPU
// once, at package init; tests clear it to run the scalar loops on the
// same machine. The purego build tag leaves this file and simd_amd64.s
// out, so a whole build runs the scalar loops (simd_other.go).
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU executes AVX2 (CPUID leaf 7) and the
// OS saves YMM state across context switches (OSXSAVE, then XCR0's SSE
// and AVX bits).
func hasAVX2() bool {
	const (
		osxsave = 1 << 27 // leaf 1 ECX
		avx     = 1 << 28 // leaf 1 ECX
		avx2    = 1 << 5  // leaf 7 EBX
		ymm     = 0b110   // XCR0: XMM and YMM state
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xgetbv0()&ymm != ymm {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (xcr0 uint32)

// gemmRows4x8AVX2 is one 4-lane × 8-column block of gemmRows: it sets
// y[l*ys+c] = init[l] + Σ_{i<n} a[i*as+c]·b[l*bl+i*bi] for l < 4 and
// c < 8. Per step it loads row i of a as two 4-column vectors and
// broadcasts each lane's scalar of b. Each output sums in i order, as
// gemmRowsScalar does, so the outputs are its bits. The slices must
// cover every element the block touches.
//
//go:noescape
func gemmRows4x8AVX2(y []float64, ys int, a []float64, as int, b []float64, bl, bi, n int, init *[4]float64)

// gemmCols4x8AVX2 is one 4-lane × 8-column block of gemmCols: it adds
// Σ_k a[c*as+steps[k]]·bp[4k+l] to y[l*ys+c] for l < 4 and c < 8, where
// bp holds the four lanes' b values of each packed step. Per step it
// loads the four lanes' values as one vector and broadcasts row c's
// element steps[k] of a. It loads the block of y first and sums onto it
// in step order, as gemmCols' scalar loop does, so the outputs are its
// bits.
//
//go:noescape
func gemmCols4x8AVX2(y []float64, ys int, a []float64, as int, bp []float64, steps []int)

// addAVX2 is addTo four lanes at a time; len(dst) must be at least
// len(src).
//
//go:noescape
func addAVX2(dst, src []float64)

// axpyAVX2 is axpy four lanes at a time: dst[i] += s·src[i] as a
// VMULPD rounded product, then a VADDPD rounded sum, never fused, so
// every element is the scalar loop's bits. len(dst) must be at least
// len(src).
//
//go:noescape
func axpyAVX2(dst, src []float64, s float64)
