package tensor

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// fmaMnemonic matches the x86 fused multiply-add family: VFMADD*,
// VFMSUB*, VFNMADD* and VFNMSUB* (VFMADDSUB*/VFMSUBADD* included).
var fmaMnemonic = regexp.MustCompile(`\bVFN?M(ADD|SUB)\w*`)

// The AVX2 kernels must round like the scalar loops: a rounded product,
// then a rounded sum, never one fused rounding — the numeric contract
// the bit-identity tests and the loss-bits golden rely on. A fused
// instruction that happens to agree on the tested operands would slip
// past them, so the assembly itself is read: no instruction of
// simd_amd64.s (comments aside) may be an FMA.
func TestAssemblyHasNoFMA(t *testing.T) {
	src, err := os.ReadFile("simd_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(src), "\n") {
		code, _, _ := strings.Cut(line, "//")
		if m := fmaMnemonic.FindString(strings.ToUpper(code)); m != "" {
			t.Errorf("simd_amd64.s:%d: fused multiply-add %s: %s", i+1, m, strings.TrimSpace(line))
		}
	}
}
