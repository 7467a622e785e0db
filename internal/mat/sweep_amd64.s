//go:build amd64 && !purego

#include "textflag.h"

// func subMul4AVX2(dst, c0, c1, c2, c3 []float64, a0, a1, a2, a3 float64)
//
// dst[i] = (((dst[i] - c0[i]*a0) - c1[i]*a1) - c2[i]*a2) - c3[i]*a3 for
// every i < len(dst): four lanes per step, then the last len(dst) mod 4
// entries one at a time with the scalar forms of the same instructions.
// Every product is rounded by VMULPD (VMULSD) before VSUBPD (VSUBSD)
// takes it, as the Go loop rounds each; no FMA. Each instruction takes
// its operands in the Go expression's order (c[i] first, then the
// multiplier; the running value, then the product).
TEXT ·subMul4AVX2(SB), NOSPLIT, $0-152
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         c0_base+24(FP), R8
	MOVQ         c1_base+48(FP), R9
	MOVQ         c2_base+72(FP), R10
	MOVQ         c3_base+96(FP), R11
	VBROADCASTSD a0+120(FP), Y0
	VBROADCASTSD a1+128(FP), Y1
	VBROADCASTSD a2+136(FP), Y2
	VBROADCASTSD a3+144(FP), Y3
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-4, DX       // the multiple-of-four prefix
	JZ           tail

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
	CMPQ    AX, DX
	JB      loop

tail:
	CMPQ   AX, CX
	JAE    done
	VMOVSD (DI)(AX*8), X4
	VMOVSD (R8)(AX*8), X5
	VMOVSD (R9)(AX*8), X6
	VMOVSD (R10)(AX*8), X7
	VMOVSD (R11)(AX*8), X8
	VMULSD X0, X5, X5
	VMULSD X1, X6, X6
	VMULSD X2, X7, X7
	VMULSD X3, X8, X8
	VSUBSD X5, X4, X4
	VSUBSD X6, X4, X4
	VSUBSD X7, X4, X4
	VSUBSD X8, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// func backSweepAVX2(y, l []float64, n int, x0, x1, x2, x3 float64)
//
// With m = len(y) ≥ 1: y[i] = (((y[i] - b[3]*x0) - b[2]*x1) - b[1]*x2) -
// b[0]*x3 for every i < m, where b = l[o_i : o_i+4] holds L[m..m+3][i],
// o_0 = m and o_{i+1} = o_i + n - i - 1. Four entries per step: the four
// blocks are loaded whole and transposed in registers (VUNPCKLPD,
// VUNPCKHPD, VPERM2F128) into one vector per factor row, so each lane
// runs one entry's subtractions; then the last m mod 4 entries one at a
// time with the scalar forms of the same instructions. Every product is
// rounded by VMULPD (VMULSD) before VSUBPD (VSUBSD) takes it; no FMA.
// Each instruction takes its operands in the compiled Go loop's order:
// the factor entry, then the multiplier; the running value, then the
// product.
TEXT ·backSweepAVX2(SB), NOSPLIT, $0-88
	MOVQ         y_base+0(FP), DI
	MOVQ         y_len+8(FP), CX
	MOVQ         l_base+24(FP), R8
	MOVQ         n+48(FP), BX
	VBROADCASTSD x0+56(FP), Y0
	VBROADCASTSD x1+64(FP), Y1
	VBROADCASTSD x2+72(FP), Y2
	VBROADCASTSD x3+80(FP), Y3
	LEAQ         (R8)(CX*8), SI // &l[o_0]
	DECQ         BX
	SHLQ         $3, BX         // 8·(n-1): the step from o_0 to o_1
	XORQ         AX, AX
	MOVQ         CX, R9
	ANDQ         $-4, R9        // the multiple-of-four prefix
	JZ           backtail

backloop:
	LEAQ       (SI)(BX*1), R10 // &l[o_{i+1}]
	SUBQ       $8, BX
	LEAQ       (R10)(BX*1), R11
	SUBQ       $8, BX
	LEAQ       (R11)(BX*1), R12
	SUBQ       $8, BX
	VMOVUPD    (SI), Y4        // entry i:   L[m][i] L[m+1][i] L[m+2][i] L[m+3][i]
	VMOVUPD    (R10), Y5       // entry i+1
	VMOVUPD    (R11), Y6       // entry i+2
	VMOVUPD    (R12), Y7       // entry i+3
	LEAQ       (R12)(BX*1), SI // &l[o_{i+4}]
	SUBQ       $8, BX
	VUNPCKLPD  Y5, Y4, Y8      // e0r0 e1r0 e0r2 e1r2
	VUNPCKHPD  Y5, Y4, Y9      // e0r1 e1r1 e0r3 e1r3
	VUNPCKLPD  Y7, Y6, Y10     // e2r0 e3r0 e2r2 e3r2
	VUNPCKHPD  Y7, Y6, Y11     // e2r1 e3r1 e2r3 e3r3
	VPERM2F128 $0x20, Y10, Y8, Y4 // L[m][i..i+3]
	VPERM2F128 $0x20, Y11, Y9, Y5 // L[m+1][i..i+3]
	VPERM2F128 $0x31, Y10, Y8, Y6 // L[m+2][i..i+3]
	VPERM2F128 $0x31, Y11, Y9, Y7 // L[m+3][i..i+3]
	VMOVUPD    (DI)(AX*8), Y12
	VMULPD     Y0, Y7, Y7
	VMULPD     Y1, Y6, Y6
	VMULPD     Y2, Y5, Y5
	VMULPD     Y3, Y4, Y4
	VSUBPD     Y7, Y12, Y12
	VSUBPD     Y6, Y12, Y12
	VSUBPD     Y5, Y12, Y12
	VSUBPD     Y4, Y12, Y12
	VMOVUPD    Y12, (DI)(AX*8)
	ADDQ       $4, AX
	CMPQ       AX, R9
	JB         backloop

backtail:
	CMPQ   AX, CX
	JAE    backdone
	VMOVSD (DI)(AX*8), X12
	VMOVSD 24(SI), X7
	VMOVSD 16(SI), X6
	VMOVSD 8(SI), X5
	VMOVSD (SI), X4
	VMULSD X0, X7, X7
	VMULSD X1, X6, X6
	VMULSD X2, X5, X5
	VMULSD X3, X4, X4
	VSUBSD X7, X12, X12
	VSUBSD X6, X12, X12
	VSUBSD X5, X12, X12
	VSUBSD X4, X12, X12
	VMOVSD X12, (DI)(AX*8)
	ADDQ   BX, SI
	SUBQ   $8, BX
	INCQ   AX
	JMP    backtail

backdone:
	VZEROUPPER
	RET
