//go:build amd64 && !purego

#include "textflag.h"

// Every lane is one output summed exactly as the scalar loops sum it: a
// VMULPD rounded product, then a VADDPD rounded sum, in reduction order.
// No fused multiply-add: it rounds once where the Go loops round twice.

// func gemmRows4x8AVX2(y []float64, ys int, a []float64, as int, b []float64, bl, bi, n int, init *[4]float64)
TEXT ·gemmRows4x8AVX2(SB), NOSPLIT, $0-120
	MOVQ y_base+0(FP), BX
	MOVQ ys+24(FP), R13
	SHLQ $3, R13              // R13 = lane stride of y in bytes
	MOVQ a_base+32(FP), SI
	MOVQ as+56(FP), DX
	SHLQ $3, DX               // DX = row stride of a in bytes
	MOVQ b_base+64(FP), DI
	MOVQ bl+88(FP), R8
	SHLQ $3, R8               // R8 = lane stride of b in bytes
	LEAQ (R8)(R8*2), R10      // 3 lanes
	MOVQ bi+96(FP), R9
	SHLQ $3, R9               // R9 = step stride of b in bytes
	MOVQ n+104(FP), CX

	// Lane l's eight columns are Y(2l) (columns 0..3) and Y(2l+1)
	// (columns 4..7), each starting from init[l].
	MOVQ         init+112(FP), AX
	VBROADCASTSD (AX), Y0
	VMOVAPD      Y0, Y1
	VBROADCASTSD 8(AX), Y2
	VMOVAPD      Y2, Y3
	VBROADCASTSD 16(AX), Y4
	VMOVAPD      Y4, Y5
	VBROADCASTSD 24(AX), Y6
	VMOVAPD      Y6, Y7
	TESTQ        CX, CX
	JZ           store

step:
	VMOVUPD      (SI), Y8     // row i of a, columns 0..3
	VMOVUPD      32(SI), Y9   // columns 4..7
	VBROADCASTSD (DI), Y10    // lane 0's scalar of step i
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y0, Y0
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD (DI)(R8*1), Y13
	VMULPD       Y8, Y13, Y11
	VMULPD       Y9, Y13, Y12
	VADDPD       Y11, Y2, Y2
	VADDPD       Y12, Y3, Y3
	VBROADCASTSD (DI)(R8*2), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y4, Y4
	VADDPD       Y12, Y5, Y5
	VBROADCASTSD (DI)(R10*1), Y13
	VMULPD       Y8, Y13, Y11
	VMULPD       Y9, Y13, Y12
	VADDPD       Y11, Y6, Y6
	VADDPD       Y12, Y7, Y7
	ADDQ         DX, SI
	ADDQ         R9, DI
	DECQ         CX
	JNZ          step

store:
	LEAQ    (R13)(R13*2), AX
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, 32(BX)
	VMOVUPD Y2, (BX)(R13*1)
	VMOVUPD Y3, 32(BX)(R13*1)
	VMOVUPD Y4, (BX)(R13*2)
	VMOVUPD Y5, 32(BX)(R13*2)
	VMOVUPD Y6, (BX)(AX*1)
	VMOVUPD Y7, 32(BX)(AX*1)
	VZEROUPPER
	RET

// func gemmCols4x8AVX2(y []float64, ys int, a []float64, as int, bp []float64, steps []int)
TEXT ·gemmCols4x8AVX2(SB), NOSPLIT, $0-112
	MOVQ y_base+0(FP), BX
	MOVQ ys+24(FP), R13
	SHLQ $3, R13              // R13 = lane stride of y in bytes
	LEAQ (R13)(R13*2), AX     // 3 lanes
	MOVQ a_base+32(FP), SI
	MOVQ as+56(FP), DX
	SHLQ $3, DX               // DX = row stride of a in bytes
	LEAQ (DX)(DX*2), R10      // 3 rows
	LEAQ (DX)(DX*4), R11      // 5 rows
	LEAQ (R10)(DX*4), R12     // 7 rows
	MOVQ bp_base+64(FP), DI
	MOVQ steps_base+88(FP), R8
	MOVQ steps_len+96(FP), CX // CX = packed steps

	// Y0..Y7 hold columns 0..7, four lanes per register: load each 4x4
	// quarter of y (lanes x columns) and transpose it.
	VMOVUPD    (BX), Y8
	VMOVUPD    (BX)(R13*1), Y9
	VMOVUPD    (BX)(R13*2), Y10
	VMOVUPD    (BX)(AX*1), Y11
	VUNPCKLPD  Y9, Y8, Y12    // l0c0 l1c0 l0c2 l1c2
	VUNPCKHPD  Y9, Y8, Y13    // l0c1 l1c1 l0c3 l1c3
	VUNPCKLPD  Y11, Y10, Y14  // l2c0 l3c0 l2c2 l3c2
	VUNPCKHPD  Y11, Y10, Y8   // l2c1 l3c1 l2c3 l3c3
	VPERM2F128 $0x20, Y14, Y12, Y0
	VPERM2F128 $0x20, Y8, Y13, Y1
	VPERM2F128 $0x31, Y14, Y12, Y2
	VPERM2F128 $0x31, Y8, Y13, Y3
	VMOVUPD    32(BX), Y8
	VMOVUPD    32(BX)(R13*1), Y9
	VMOVUPD    32(BX)(R13*2), Y10
	VMOVUPD    32(BX)(AX*1), Y11
	VUNPCKLPD  Y9, Y8, Y12
	VUNPCKHPD  Y9, Y8, Y13
	VUNPCKLPD  Y11, Y10, Y14
	VUNPCKHPD  Y11, Y10, Y8
	VPERM2F128 $0x20, Y14, Y12, Y4
	VPERM2F128 $0x20, Y8, Y13, Y5
	VPERM2F128 $0x31, Y14, Y12, Y6
	VPERM2F128 $0x31, Y8, Y13, Y7
	TESTQ      CX, CX
	JZ         store

step:
	MOVQ         (R8), R9     // i, the step's index
	LEAQ         (SI)(R9*8), R9
	VMOVUPD      (DI), Y8     // step i of the four lanes
	VBROADCASTSD (R9), Y9
	VBROADCASTSD (R9)(DX*1), Y10
	VBROADCASTSD (R9)(DX*2), Y11
	VBROADCASTSD (R9)(R10*1), Y12
	VMULPD       Y8, Y9, Y9
	VMULPD       Y8, Y10, Y10
	VMULPD       Y8, Y11, Y11
	VMULPD       Y8, Y12, Y12
	VADDPD       Y9, Y0, Y0
	VADDPD       Y10, Y1, Y1
	VADDPD       Y11, Y2, Y2
	VADDPD       Y12, Y3, Y3
	VBROADCASTSD (R9)(DX*4), Y9
	VBROADCASTSD (R9)(R11*1), Y10
	VBROADCASTSD (R9)(R10*2), Y11
	VBROADCASTSD (R9)(R12*1), Y12
	VMULPD       Y8, Y9, Y9
	VMULPD       Y8, Y10, Y10
	VMULPD       Y8, Y11, Y11
	VMULPD       Y8, Y12, Y12
	VADDPD       Y9, Y4, Y4
	VADDPD       Y10, Y5, Y5
	VADDPD       Y11, Y6, Y6
	VADDPD       Y12, Y7, Y7
	ADDQ         $8, R8
	ADDQ         $32, DI
	DECQ         CX
	JNZ          step

store:
	// Transpose each 4x4 quarter back (columns x lanes to lanes x
	// columns) and store lane l's eight outputs at y[l*ys:].
	VUNPCKLPD  Y1, Y0, Y8     // l0c0 l0c1 l2c0 l2c1
	VUNPCKHPD  Y1, Y0, Y9     // l1c0 l1c1 l3c0 l3c1
	VUNPCKLPD  Y3, Y2, Y10    // l0c2 l0c3 l2c2 l2c3
	VUNPCKHPD  Y3, Y2, Y11    // l1c2 l1c3 l3c2 l3c3
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

// func addAVX2(dst, src []float64)
TEXT ·addAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX              // DX = elements in whole 4-lane steps

lanes:
	CMPQ    AX, DX
	JAE     tail
	VMOVUPD (DI)(AX*8), Y0
	VADDPD  (SI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     lanes

tail:
	CMPQ   AX, CX
	JAE    done
	VMOVSD (DI)(AX*8), X0
	VADDSD (SI)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// func axpyAVX2(dst, src []float64, s float64)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         src_len+32(FP), CX
	VBROADCASTSD s+48(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX      // DX = elements in whole 8-lane steps

	// dst[i] = dst[i] + s·src[i]: the product rounded, then the sum, with
	// dst the first operand of the add as in the scalar dst[i] += s*v.
pairs:
	CMPQ    AX, DX
	JAE     quad
	VMULPD  (SI)(AX*8), Y0, Y1
	VMULPD  32(SI)(AX*8), Y0, Y2
	VMOVUPD (DI)(AX*8), Y3
	VMOVUPD 32(DI)(AX*8), Y4
	VADDPD  Y1, Y3, Y3
	VADDPD  Y2, Y4, Y4
	VMOVUPD Y3, (DI)(AX*8)
	VMOVUPD Y4, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     pairs

quad:
	LEAQ    4(AX), DX
	CMPQ    DX, CX
	JA      tail
	VMULPD  (SI)(AX*8), Y0, Y1
	VMOVUPD (DI)(AX*8), Y3
	VADDPD  Y1, Y3, Y3
	VMOVUPD Y3, (DI)(AX*8)
	MOVQ    DX, AX

tail:
	CMPQ   AX, CX
	JAE    done
	VMULSD (SI)(AX*8), X0, X1
	VMOVSD (DI)(AX*8), X3
	VADDSD X1, X3, X3
	VMOVSD X3, (DI)(AX*8)
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
