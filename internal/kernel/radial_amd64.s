//go:build amd64 && !purego

#include "textflag.h"

// Four-lane constants, one 32-byte vector each. The exponential's
// constants are those of $GOROOT/src/math/exp_amd64.s, written the same
// way, so the assembler rounds them to the same bits.
#define FIVE radialconst<>+0(SB) // 5
#define TMAX radialconst<>+32(SB) // the largest t the port takes: e^{-t} stays normal
#define SIGN radialconst<>+64(SB) // sign bit
#define LOG2E radialconst<>+96(SB) // 1/ln 2
#define LN2U radialconst<>+128(SB) // upper half of ln 2
#define LN2L radialconst<>+160(SB) // lower half of ln 2
#define SIXTEENTH radialconst<>+192(SB) // 1/16
#define P7 radialconst<>+224(SB) // Taylor coefficients, highest first
#define P6 radialconst<>+256(SB)
#define P5 radialconst<>+288(SB)
#define P4 radialconst<>+320(SB)
#define P3 radialconst<>+352(SB)
#define P2 radialconst<>+384(SB)
#define HALF radialconst<>+416(SB)
#define ONE radialconst<>+448(SB)
#define TWO radialconst<>+480(SB)
#define THREE radialconst<>+512(SB)
#define NEGFIVESIXTHS radialconst<>+544(SB) // float64(-5/6), the constant phiDeriv multiplies by
#define BIAS radialconst<>+576(SB) // exponent bias, as int64 lanes

DATA radialconst<>+0(SB)/8, $5.0
DATA radialconst<>+8(SB)/8, $5.0
DATA radialconst<>+16(SB)/8, $5.0
DATA radialconst<>+24(SB)/8, $5.0
DATA radialconst<>+32(SB)/8, $708.0
DATA radialconst<>+40(SB)/8, $708.0
DATA radialconst<>+48(SB)/8, $708.0
DATA radialconst<>+56(SB)/8, $708.0
DATA radialconst<>+64(SB)/8, $0x8000000000000000
DATA radialconst<>+72(SB)/8, $0x8000000000000000
DATA radialconst<>+80(SB)/8, $0x8000000000000000
DATA radialconst<>+88(SB)/8, $0x8000000000000000
DATA radialconst<>+96(SB)/8, $1.4426950408889634073599246810018920
DATA radialconst<>+104(SB)/8, $1.4426950408889634073599246810018920
DATA radialconst<>+112(SB)/8, $1.4426950408889634073599246810018920
DATA radialconst<>+120(SB)/8, $1.4426950408889634073599246810018920
DATA radialconst<>+128(SB)/8, $0.69314718055966295651160180568695068359375
DATA radialconst<>+136(SB)/8, $0.69314718055966295651160180568695068359375
DATA radialconst<>+144(SB)/8, $0.69314718055966295651160180568695068359375
DATA radialconst<>+152(SB)/8, $0.69314718055966295651160180568695068359375
DATA radialconst<>+160(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA radialconst<>+168(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA radialconst<>+176(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA radialconst<>+184(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA radialconst<>+192(SB)/8, $0.0625
DATA radialconst<>+200(SB)/8, $0.0625
DATA radialconst<>+208(SB)/8, $0.0625
DATA radialconst<>+216(SB)/8, $0.0625
DATA radialconst<>+224(SB)/8, $2.4801587301587301587e-5
DATA radialconst<>+232(SB)/8, $2.4801587301587301587e-5
DATA radialconst<>+240(SB)/8, $2.4801587301587301587e-5
DATA radialconst<>+248(SB)/8, $2.4801587301587301587e-5
DATA radialconst<>+256(SB)/8, $1.9841269841269841270e-4
DATA radialconst<>+264(SB)/8, $1.9841269841269841270e-4
DATA radialconst<>+272(SB)/8, $1.9841269841269841270e-4
DATA radialconst<>+280(SB)/8, $1.9841269841269841270e-4
DATA radialconst<>+288(SB)/8, $1.3888888888888888889e-3
DATA radialconst<>+296(SB)/8, $1.3888888888888888889e-3
DATA radialconst<>+304(SB)/8, $1.3888888888888888889e-3
DATA radialconst<>+312(SB)/8, $1.3888888888888888889e-3
DATA radialconst<>+320(SB)/8, $8.3333333333333333333e-3
DATA radialconst<>+328(SB)/8, $8.3333333333333333333e-3
DATA radialconst<>+336(SB)/8, $8.3333333333333333333e-3
DATA radialconst<>+344(SB)/8, $8.3333333333333333333e-3
DATA radialconst<>+352(SB)/8, $4.1666666666666666667e-2
DATA radialconst<>+360(SB)/8, $4.1666666666666666667e-2
DATA radialconst<>+368(SB)/8, $4.1666666666666666667e-2
DATA radialconst<>+376(SB)/8, $4.1666666666666666667e-2
DATA radialconst<>+384(SB)/8, $1.6666666666666666667e-1
DATA radialconst<>+392(SB)/8, $1.6666666666666666667e-1
DATA radialconst<>+400(SB)/8, $1.6666666666666666667e-1
DATA radialconst<>+408(SB)/8, $1.6666666666666666667e-1
DATA radialconst<>+416(SB)/8, $0.5
DATA radialconst<>+424(SB)/8, $0.5
DATA radialconst<>+432(SB)/8, $0.5
DATA radialconst<>+440(SB)/8, $0.5
DATA radialconst<>+448(SB)/8, $1.0
DATA radialconst<>+456(SB)/8, $1.0
DATA radialconst<>+464(SB)/8, $1.0
DATA radialconst<>+472(SB)/8, $1.0
DATA radialconst<>+480(SB)/8, $2.0
DATA radialconst<>+488(SB)/8, $2.0
DATA radialconst<>+496(SB)/8, $2.0
DATA radialconst<>+504(SB)/8, $2.0
DATA radialconst<>+512(SB)/8, $3.0
DATA radialconst<>+520(SB)/8, $3.0
DATA radialconst<>+528(SB)/8, $3.0
DATA radialconst<>+536(SB)/8, $3.0
DATA radialconst<>+544(SB)/8, $0xbfeaaaaaaaaaaaab
DATA radialconst<>+552(SB)/8, $0xbfeaaaaaaaaaaaab
DATA radialconst<>+560(SB)/8, $0xbfeaaaaaaaaaaaab
DATA radialconst<>+568(SB)/8, $0xbfeaaaaaaaaaaaab
DATA radialconst<>+576(SB)/8, $1023
DATA radialconst<>+584(SB)/8, $1023
DATA radialconst<>+592(SB)/8, $1023
DATA radialconst<>+600(SB)/8, $1023
GLOBL radialconst<>(SB), RODATA, $608

// func radialAVX2(dst, dphi *float64, n int, v float64) int
//
// For each block of four r² values in dst[0:n], n a multiple of four,
// computes t = √(5r²), e = e^{−t} by the avxfma branch of math.Exp
// (exp_amd64.s) operation for operation, and then
//
//	dst[i]  = v·(((1+t) + (t·t)/3)·e)
//	dphi[i] = ((−5/6)·(1+t))·e     (skipped when dphi is nil)
//
// as phiDeriv writes them. It stops at the first block with a lane whose
// t is not below 708 (NaN included), leaving that block untouched, and
// returns the number of entries done. Below 708 the exponent e+1023 is at
// least 2, so none of math.Exp's NaN, infinity, overflow, underflow or
// denormal branches can be taken, and the port has none.
TEXT ·radialAVX2(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         dphi+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD v+24(FP), Y15
	XORQ         AX, AX

loop:
	CMPQ      AX, CX
	JAE       done
	VMOVUPD   (DI)(AX*8), Y0
	VMULPD    FIVE, Y0, Y0
	VSQRTPD   Y0, Y8           // t
	VCMPPD    $0x11, TMAX, Y8, Y9 // t < 708, false for NaN
	VMOVMSKPD Y9, BX
	CMPQ      BX, $15
	JNE       done

	// e^{-t}, lane for lane as math.Exp's avxfma branch computes it.
	VXORPD       SIGN, Y8, Y0   // x = -t
	VMULPD       LOG2E, Y0, Y1
	VCVTPD2DQY   Y1, X2         // exponent, rounded by MXCSR as CVTSD2SL does
	VCVTDQ2PD    X2, Y3
	VFNMADD231PD LN2U, Y3, Y0   // x -= exponent*LN2U, fused
	VFNMADD231PD LN2L, Y3, Y0   // x -= exponent*LN2L, fused
	VMULPD       SIXTEENTH, Y0, Y0
	VMOVUPD      P7, Y1         // Taylor series by fused Horner steps
	VFMADD213PD  P6, Y0, Y1
	VFMADD213PD  P5, Y0, Y1
	VFMADD213PD  P4, Y0, Y1
	VFMADD213PD  P3, Y0, Y1
	VFMADD213PD  P2, Y0, Y1
	VFMADD213PD  HALF, Y0, Y1
	VFMADD213PD  ONE, Y0, Y1
	VMULPD       Y1, Y0, Y0     // x = x*p
	VADDPD       TWO, Y0, Y1    // three steps of x = x*(x+2)
	VMULPD       Y1, Y0, Y0
	VADDPD       TWO, Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       TWO, Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       TWO, Y0, Y1
	VFMADD213PD  ONE, Y1, Y0    // x = x*(x+2) + 1, fused
	VPMOVSXDQ    X2, Y4         // scale = (exponent+1023)<<52
	VPADDQ       BIAS, Y4, Y4
	VPSLLQ       $52, Y4, Y4
	VMULPD       Y4, Y0, Y0     // e

	// φ and dφ/d(r²) as phiDeriv writes them.
	VADDPD  ONE, Y8, Y5         // 1+t
	VMULPD  Y8, Y8, Y6
	VDIVPD  THREE, Y6, Y6       // (t*t)/3
	VADDPD  Y6, Y5, Y6
	VMULPD  Y0, Y6, Y6          // φ
	VMULPD  Y15, Y6, Y6         // v*φ
	VMOVUPD Y6, (DI)(AX*8)
	TESTQ   SI, SI
	JZ      next
	VMULPD  NEGFIVESIXTHS, Y5, Y7
	VMULPD  Y0, Y7, Y7          // dφ/d(r²)
	VMOVUPD Y7, (SI)(AX*8)

next:
	ADDQ $4, AX
	JMP  loop

done:
	MOVQ AX, ret+32(FP)
	VZEROUPPER
	RET

// func r2AVX2(dst, x, xs, inv []float64)
//
// For rows i < len(dst) of xs (d = len(x) values each), dst[i] =
// Σ_t ((x[t] − xs[i][t])·inv[t])², summed from +0 in increasing t as the
// scalar loop sums it. Four rows at a time: each row's squared
// differences of four dimensions are transposed (VUNPCKLPD, VUNPCKHPD,
// VPERM2F128) into one vector per dimension, which is added to the four
// rows' running sums in dimension order. The last len(dst) mod 4 rows run
// the same operations one lane at a time. Every operation takes its
// operands in the Go expression's order; no FMA.
TEXT ·r2AVX2(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), R10
	MOVQ xs_base+48(FP), R8
	MOVQ inv_base+72(FP), R9
	SHLQ $3, R10             // row length in bytes
	LEAQ (R8)(R10*1), R12    // row 1 of the block
	LEAQ (R12)(R10*1), R13   // row 2
	LEAQ (R13)(R10*1), DX    // row 3
	MOVQ CX, R11
	ANDQ $-4, R11            // rows in whole blocks
	XORQ AX, AX
	TESTQ R11, R11
	JZ   rows

block:
	VXORPD Y0, Y0, Y0
	XORQ   BX, BX

dims:
	VMOVUPD    (SI)(BX*1), Y1 // x
	VMOVUPD    (R9)(BX*1), Y2 // inv
	VMOVUPD    (R8)(BX*1), Y3
	VSUBPD     Y3, Y1, Y3
	VMULPD     Y2, Y3, Y3
	VMULPD     Y3, Y3, Y3     // row 0: d0 d1 d2 d3
	VMOVUPD    (R12)(BX*1), Y4
	VSUBPD     Y4, Y1, Y4
	VMULPD     Y2, Y4, Y4
	VMULPD     Y4, Y4, Y4     // row 1
	VMOVUPD    (R13)(BX*1), Y5
	VSUBPD     Y5, Y1, Y5
	VMULPD     Y2, Y5, Y5
	VMULPD     Y5, Y5, Y5     // row 2
	VMOVUPD    (DX)(BX*1), Y6
	VSUBPD     Y6, Y1, Y6
	VMULPD     Y2, Y6, Y6
	VMULPD     Y6, Y6, Y6     // row 3
	VUNPCKLPD  Y4, Y3, Y7     // r0d0 r1d0 r0d2 r1d2
	VUNPCKHPD  Y4, Y3, Y8     // r0d1 r1d1 r0d3 r1d3
	VUNPCKLPD  Y6, Y5, Y9     // r2d0 r3d0 r2d2 r3d2
	VUNPCKHPD  Y6, Y5, Y10    // r2d1 r3d1 r2d3 r3d3
	VPERM2F128 $0x20, Y9, Y7, Y3  // dimension 0 of rows 0–3
	VPERM2F128 $0x20, Y10, Y8, Y4 // dimension 1
	VPERM2F128 $0x31, Y9, Y7, Y5  // dimension 2
	VPERM2F128 $0x31, Y10, Y8, Y6 // dimension 3
	VADDPD     Y3, Y0, Y0
	VADDPD     Y4, Y0, Y0
	VADDPD     Y5, Y0, Y0
	VADDPD     Y6, Y0, Y0
	ADDQ       $32, BX
	CMPQ       BX, R10
	JB         dims
	VMOVUPD    Y0, (DI)(AX*8)
	LEAQ       (R8)(R10*4), R8
	LEAQ       (R12)(R10*4), R12
	LEAQ       (R13)(R10*4), R13
	LEAQ       (DX)(R10*4), DX
	ADDQ       $4, AX
	CMPQ       AX, R11
	JB         block

rows:
	CMPQ   AX, CX
	JAE    done
	VXORPD X0, X0, X0
	XORQ   BX, BX

rowdims:
	VMOVSD (SI)(BX*1), X1
	VMOVSD (R8)(BX*1), X3
	VSUBSD X3, X1, X3
	VMULSD (R9)(BX*1), X3, X3
	VMULSD X3, X3, X3
	VADDSD X3, X0, X0
	ADDQ   $8, BX
	CMPQ   BX, R10
	JB     rowdims
	VMOVSD X0, (DI)(AX*8)
	ADDQ   R10, R8
	INCQ   AX
	JMP    rows

done:
	VZEROUPPER
	RET
