package tensor

// useAVX2 routes the convolution kernels' inner loops to simd_amd64.s.
// It is read from the CPU once, at package init; tests clear it to run
// the scalar loops on the same machine.
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

// gemm4x8AVX2 sets y[l*ys+j] = bias[l] + Σ_i p[j*k+i]·w[4i+l] for four
// filters l and eight output positions j, k = len(w)/4: p is eight rows
// of the row-major patch tile and w the four filters' weights
// interleaved tap by tap (see interleave4). Each lane sums in tap order,
// as dot4 does, so the outputs are dot4's bits.
//
//go:noescape
func gemm4x8AVX2(y []float64, ys int, p, w []float64, bias *[4]float64)

// axpyAVX2 is axpy four lanes at a time; len(src) must be at least
// len(dst).
//
//go:noescape
func axpyAVX2(dst []float64, a float64, src []float64)
