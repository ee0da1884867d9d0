#include "textflag.h"

// Every lane is one output summed exactly as the scalar loops sum it: a
// VMULPD rounded product, then a VADDPD rounded sum, in tap order. No
// fused multiply-add: it rounds once where the Go loops round twice.

// func gemm4x8AVX2(y []float64, ys int, p, w []float64, bias *[4]float64)
TEXT ·gemm4x8AVX2(SB), NOSPLIT, $0-88
	MOVQ y_base+0(FP), BX
	MOVQ ys+24(FP), R13
	SHLQ $3, R13              // R13 = filter stride of y in bytes
	MOVQ p_base+32(FP), SI
	MOVQ w_base+56(FP), DI
	MOVQ w_len+64(FP), CX
	SHRQ $2, CX               // CX = k taps
	MOVQ CX, DX
	SHLQ $3, DX               // DX = patch row stride in bytes
	LEAQ (DX)(DX*2), R10      // 3 rows
	LEAQ (DX)(DX*4), R11      // 5 rows
	LEAQ (R10)(DX*4), R12     // 7 rows

	// Y0..Y7 hold positions 0..7, four filters per register.
	MOVQ bias+80(FP), AX
	VMOVUPD (AX), Y0
	VMOVAPD Y0, Y1
	VMOVAPD Y0, Y2
	VMOVAPD Y0, Y3
	VMOVAPD Y0, Y4
	VMOVAPD Y0, Y5
	VMOVAPD Y0, Y6
	VMOVAPD Y0, Y7
	TESTQ CX, CX
	JZ    store

tap:
	VMOVUPD      (DI), Y8     // tap i of the four filters
	VBROADCASTSD (SI), Y9
	VBROADCASTSD (SI)(DX*1), Y10
	VBROADCASTSD (SI)(DX*2), Y11
	VBROADCASTSD (SI)(R10*1), Y12
	VMULPD       Y8, Y9, Y9
	VMULPD       Y8, Y10, Y10
	VMULPD       Y8, Y11, Y11
	VMULPD       Y8, Y12, Y12
	VADDPD       Y9, Y0, Y0
	VADDPD       Y10, Y1, Y1
	VADDPD       Y11, Y2, Y2
	VADDPD       Y12, Y3, Y3
	VBROADCASTSD (SI)(DX*4), Y9
	VBROADCASTSD (SI)(R11*1), Y10
	VBROADCASTSD (SI)(R10*2), Y11
	VBROADCASTSD (SI)(R12*1), Y12
	VMULPD       Y8, Y9, Y9
	VMULPD       Y8, Y10, Y10
	VMULPD       Y8, Y11, Y11
	VMULPD       Y8, Y12, Y12
	VADDPD       Y9, Y4, Y4
	VADDPD       Y10, Y5, Y5
	VADDPD       Y11, Y6, Y6
	VADDPD       Y12, Y7, Y7
	ADDQ         $8, SI
	ADDQ         $32, DI
	DECQ         CX
	JNZ          tap

store:
	// Transpose each 4x4 quarter (positions x filters) to filters x
	// positions and store filter l's eight outputs at y[l*ys:].
	LEAQ       (R13)(R13*2), AX
	VUNPCKLPD  Y1, Y0, Y8     // f0p0 f0p1 f2p0 f2p1
	VUNPCKHPD  Y1, Y0, Y9     // f1p0 f1p1 f3p0 f3p1
	VUNPCKLPD  Y3, Y2, Y10    // f0p2 f0p3 f2p2 f2p3
	VUNPCKHPD  Y3, Y2, Y11    // f1p2 f1p3 f3p2 f3p3
	VPERM2F128 $0x20, Y10, Y8, Y0
	VPERM2F128 $0x20, Y11, Y9, Y1
	VPERM2F128 $0x31, Y10, Y8, Y2
	VPERM2F128 $0x31, Y11, Y9, Y3
	VMOVUPD    Y0, (BX)
	VMOVUPD    Y1, (BX)(R13*1)
	VMOVUPD    Y2, (BX)(R13*2)
	VMOVUPD    Y3, (BX)(AX*1)
	VUNPCKLPD  Y5, Y4, Y8
	VUNPCKHPD  Y5, Y4, Y9
	VUNPCKLPD  Y7, Y6, Y10
	VUNPCKHPD  Y7, Y6, Y11
	VPERM2F128 $0x20, Y10, Y8, Y4
	VPERM2F128 $0x20, Y11, Y9, Y5
	VPERM2F128 $0x31, Y10, Y8, Y6
	VPERM2F128 $0x31, Y11, Y9, Y7
	VMOVUPD    Y4, 32(BX)
	VMOVUPD    Y5, 32(BX)(R13*1)
	VMOVUPD    Y6, 32(BX)(R13*2)
	VMOVUPD    Y7, 32(BX)(AX*1)
	VZEROUPPER
	RET

// func axpyAVX2(dst []float64, a float64, src []float64)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	VBROADCASTSD a+24(FP), Y0
	MOVQ         src_base+32(FP), SI
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-4, DX      // DX = elements in whole 4-lane steps

lanes:
	CMPQ    AX, DX
	JAE     tail
	VMULPD  (SI)(AX*8), Y0, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     lanes

tail:
	CMPQ   AX, CX
	JAE    done
	VMULSD (SI)(AX*8), X0, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (xcr0 uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, xcr0+0(FP)
	RET
