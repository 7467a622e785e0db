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
