//go:build amd64 && !purego

#include "textflag.h"

// func subMul4AVX2(dst, c0, c1, c2, c3 *float64, n int, a0, a1, a2, a3 float64)
//
// dst[i] = (((dst[i] - c0[i]*a0) - c1[i]*a1) - c2[i]*a2) - c3[i]*a3 for
// i < n, four lanes per step. Every product is rounded by VMULPD before
// VSUBPD takes it, as the Go loop rounds each; no FMA. Each instruction
// takes its operands in the Go expression's order (c[i] first, then the
// multiplier; the running value, then the product).
TEXT ·subMul4AVX2(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ c0+8(FP), R8
	MOVQ c1+16(FP), R9
	MOVQ c2+24(FP), R10
	MOVQ c3+32(FP), R11
	MOVQ n+40(FP), CX
	VBROADCASTSD a0+48(FP), Y0
	VBROADCASTSD a1+56(FP), Y1
	VBROADCASTSD a2+64(FP), Y2
	VBROADCASTSD a3+72(FP), Y3
	XORQ AX, AX

loop:
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD (R8)(AX*8), Y5
	VMOVUPD (R9)(AX*8), Y6
	VMOVUPD (R10)(AX*8), Y7
	VMOVUPD (R11)(AX*8), Y8
	VMULPD  Y0, Y5, Y5
	VMULPD  Y1, Y6, Y6
	VMULPD  Y2, Y7, Y7
	VMULPD  Y3, Y8, Y8
	VSUBPD  Y5, Y4, Y4
	VSUBPD  Y6, Y4, Y4
	VSUBPD  Y7, Y4, Y4
	VSUBPD  Y8, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JB      loop

	VZEROUPPER
	RET
