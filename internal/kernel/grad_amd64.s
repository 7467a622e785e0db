//go:build amd64 && !purego

#include "textflag.h"

DATA gradconst<>+0(SB)/8, $-2.0
GLOBL gradconst<>(SB), RODATA, $8

// func hyperGradAVX2(part, x, xs, kv, dphi, w, inv2 []float64, half, m2v float64)
//
// Over pairs j < m = len(kv), with c = half·w[j] and vd = m2v·dphi[j]:
//
//	part[0]   = kv[j]·c + part[0]
//	part[1+t] = (((δ·(δ·vd))·inv2[t])·c) + part[1+t],  δ = x[t] − xs[j][t]
//
// in increasing j: HyperGrad's and hyperGradSumGo's roundings, no FMA,
// and every operation with its operands in the order of the compiled Go
// loop, so even NaN payloads agree. part[0] runs as one scalar chain;
// then each run of four dimensions loads its four accumulators once,
// takes every pair, and stores them.
TEXT ·hyperGradAVX2(SB), NOSPLIT, $0-184
	MOVQ         part_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         x_len+32(FP), DX
	MOVQ         xs_base+48(FP), R8
	MOVQ         kv_base+72(FP), R9
	MOVQ         kv_len+80(FP), CX
	MOVQ         dphi_base+96(FP), R10
	MOVQ         w_base+120(FP), R11
	MOVQ         inv2_base+144(FP), R12
	VBROADCASTSD half+168(FP), Y14
	VBROADCASTSD m2v+176(FP), Y15
	TESTQ        CX, CX
	JZ           done

	// part[0]: the kernel values.
	VMOVSD (DI), X0
	XORQ   AX, AX

value:
	VMOVSD (R11)(AX*8), X1
	VMULSD X1, X14, X1          // c = half·w
	VMOVSD (R9)(AX*8), X2
	VMULSD X1, X2, X1           // kv·c
	VADDSD X0, X1, X0           // kv·c + part[0]
	INCQ   AX
	CMPQ   AX, CX
	JB     value
	VMOVSD X0, (DI)

	SHLQ $3, DX // row length in bytes
	XORQ BX, BX

chunk:
	VMOVUPD 8(DI)(BX*1), Y0 // part[1+t], four dimensions
	VMOVUPD (SI)(BX*1), Y1  // x
	VMOVUPD (R12)(BX*1), Y2 // inv2
	LEAQ    (R8)(BX*1), R13 // xs[0][t]
	XORQ    AX, AX

pair:
	VBROADCASTSD (R11)(AX*8), Y3
	VMULPD       Y3, Y14, Y3    // c = half·w
	VBROADCASTSD (R10)(AX*8), Y4
	VMULPD       Y4, Y15, Y4    // vd = m2v·dphi
	VMOVUPD      (R13), Y5
	VSUBPD       Y5, Y1, Y5     // δ
	VMULPD       Y4, Y5, Y4     // δ·vd
	VMULPD       Y4, Y5, Y4     // δ·(δ·vd)
	VMULPD       Y2, Y4, Y4     // kg = ·inv2
	VMULPD       Y3, Y4, Y4     // kg·c
	VADDPD       Y0, Y4, Y0     // kg·c + part
	ADDQ         DX, R13
	INCQ         AX
	CMPQ         AX, CX
	JB           pair
	VMOVUPD      Y0, 8(DI)(BX*1)
	ADDQ         $32, BX
	CMPQ         BX, DX
	JB           chunk

done:
	VZEROUPPER
	RET

// func gradXAVX2(dMean, dVar, x, xs, dphi, alpha, w, inv2 []float64, v2 float64)
//
// Over rows i < n = len(dphi), from +0, with
// g = ((x[t] − xs[i][t])·vd)·inv2[t] and vd = v2·dphi[i]:
//
//	dMean[t] = g·alpha[i] + dMean[t]
//	dVar[t]  = (−2·w[i])·g + dVar[t]
//
// in increasing i: GradXRows's and gradXSumGo's roundings, no FMA, and
// every operation with its operands in the order of the compiled Go
// loop, so even NaN payloads agree. Each run of four dimensions keeps its
// two accumulators in registers across all rows.
TEXT ·gradXAVX2(SB), NOSPLIT, $0-200
	MOVQ         dMean_base+0(FP), DI
	MOVQ         dVar_base+24(FP), SI
	MOVQ         x_len+56(FP), DX
	MOVQ         xs_base+72(FP), R9
	MOVQ         dphi_base+96(FP), R10
	MOVQ         dphi_len+104(FP), CX
	MOVQ         alpha_base+120(FP), R11
	MOVQ         w_base+144(FP), R12
	VBROADCASTSD v2+192(FP), Y15
	VBROADCASTSD gradconst<>+0(SB), Y14 // −2
	SHLQ         $3, DX                 // row length in bytes
	XORQ         BX, BX

gchunk:
	VXORPD  Y0, Y0, Y0      // dMean, four dimensions
	VXORPD  Y1, Y1, Y1      // dVar
	MOVQ    x_base+48(FP), AX
	VMOVUPD (AX)(BX*1), Y2  // x
	MOVQ    inv2_base+168(FP), AX
	VMOVUPD (AX)(BX*1), Y3  // inv2
	LEAQ    (R9)(BX*1), AX  // xs[0][t]
	XORQ    R8, R8
	TESTQ   CX, CX
	JZ      gstore

grow:
	VBROADCASTSD (R10)(R8*8), Y4
	VMULPD       Y4, Y15, Y4    // vd = v2·dphi
	VMOVUPD      (AX), Y5
	VSUBPD       Y5, Y2, Y5     // x − X_i
	VMULPD       Y4, Y5, Y5     // (x − X_i)·vd
	VMULPD       Y3, Y5, Y5     // g = ·inv2
	VBROADCASTSD (R11)(R8*8), Y6
	VMULPD       Y6, Y5, Y6     // g·alpha
	VADDPD       Y0, Y6, Y0     // g·alpha + dMean
	VBROADCASTSD (R12)(R8*8), Y7
	VMULPD       Y7, Y14, Y7    // −2·w
	VMULPD       Y5, Y7, Y7     // (−2·w)·g
	VADDPD       Y1, Y7, Y1     // (−2·w)·g + dVar
	ADDQ         DX, AX
	INCQ         R8
	CMPQ         R8, CX
	JB           grow

gstore:
	VMOVUPD Y0, (DI)(BX*1)
	VMOVUPD Y1, (SI)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, DX
	JB      gchunk
	VZEROUPPER
	RET
