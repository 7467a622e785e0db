//go:build amd64 && !purego

#include "textflag.h"

// Four-lane int64 constants: lane indices and group thresholds.
#define LANES invconst<>+0(SB) // 0, 1, 2, 3
#define GE0 invconst<>+32(SB) // 0 in every lane
#define GE4 invconst<>+64(SB) // 4 in every lane
#define GE8 invconst<>+96(SB) // 8 in every lane
#define GE12 invconst<>+128(SB) // 12 in every lane

DATA invconst<>+0(SB)/8, $0
DATA invconst<>+8(SB)/8, $1
DATA invconst<>+16(SB)/8, $2
DATA invconst<>+24(SB)/8, $3
DATA invconst<>+32(SB)/8, $0
DATA invconst<>+40(SB)/8, $0
DATA invconst<>+48(SB)/8, $0
DATA invconst<>+56(SB)/8, $0
DATA invconst<>+64(SB)/8, $4
DATA invconst<>+72(SB)/8, $4
DATA invconst<>+80(SB)/8, $4
DATA invconst<>+88(SB)/8, $4
DATA invconst<>+96(SB)/8, $8
DATA invconst<>+104(SB)/8, $8
DATA invconst<>+112(SB)/8, $8
DATA invconst<>+120(SB)/8, $8
DATA invconst<>+128(SB)/8, $12
DATA invconst<>+136(SB)/8, $12
DATA invconst<>+144(SB)/8, $12
DATA invconst<>+152(SB)/8, $12
GLOBL invconst<>(SB), RODATA, $160

// func invProductAVX2(inv, lt []float64, n, lo, hi int)
//
// For each row i in [lo, hi), cell (i, j≤i) of inv gets
// Σ_{k=i}^{n−1} lt[k][i]·lt[k][j], one lane per cell, summed from +0 in
// increasing k with separate multiply and add instructions. The cells
// fall into F = (i+1) &^ 3 cells of whole four-cell groups and the last
// P = (i+1) mod 4. The Go loop (invProductRows) builds whole groups in
// four-chain steps, whose compiled product takes L⁻¹[k][j] first, and the
// last P cells one chain at a time, whose product takes L⁻¹[k][i] first;
// every lane here takes its operands in the order of the loop that builds
// its cell, so even NaN payloads agree. The first pass over k builds the
// last P cells and groups 0–2, each later pass the next four groups:
// four independent accumulators per pass, masked loads and stores where
// a pass has fewer than sixteen cells, so no load leaves row k's first
// i+1 entries.
TEXT ·invProductAVX2(SB), NOSPLIT, $0-72
	MOVQ inv_base+0(FP), DI
	MOVQ lt_base+24(FP), SI
	MOVQ n+48(FP), DX
	MOVQ lo+56(FP), R8
	MOVQ DX, R10
	SHLQ $3, R10             // row stride in bytes
	MOVQ DX, R11
	IMULQ R10, R11
	ADDQ SI, R11             // end of lt

row:
	CMPQ R8, hi+64(FP)
	JAE  done
	MOVQ R8, AX
	IMULQ R10, AX
	LEAQ (SI)(AX*1), R12     // &lt[i][0]
	LEAQ (DI)(AX*1), R13     // &inv[i][0]
	LEAQ 1(R8), CX
	MOVQ CX, R9
	ANDQ $3, R9              // P
	ANDQ $-4, CX             // F

	// First pass: the last P cells (v·w) and groups 0–2 (w·v).
	VMOVQ        R9, X9
	VPBROADCASTQ X9, Y9
	VPCMPGTQ     LANES, Y9, Y10 // lane < P
	VMOVQ        CX, X9
	VPBROADCASTQ X9, Y9
	VPCMPGTQ     GE0, Y9, Y11   // group 0 exists: F > 0
	VPCMPGTQ     GE4, Y9, Y12   // F > 4
	VPCMPGTQ     GE8, Y9, Y13   // F > 8
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1
	VXORPD       Y2, Y2, Y2
	VXORPD       Y3, Y3, Y3
	MOVQ         R12, AX

first:
	VBROADCASTSD (AX)(R8*8), Y4
	VMASKMOVPD   (AX)(CX*8), Y10, Y5
	VMULPD       Y5, Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMASKMOVPD   (AX), Y11, Y6
	VMULPD       Y4, Y6, Y6
	VADDPD       Y6, Y1, Y1
	VMASKMOVPD   32(AX), Y12, Y7
	VMULPD       Y4, Y7, Y7
	VADDPD       Y7, Y2, Y2
	VMASKMOVPD   64(AX), Y13, Y8
	VMULPD       Y4, Y8, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         R10, AX
	CMPQ         AX, R11
	JB           first
	VMASKMOVPD   Y0, Y10, (R13)(CX*8)
	VMASKMOVPD   Y1, Y11, (R13)
	VMASKMOVPD   Y2, Y12, 32(R13)
	VMASKMOVPD   Y3, Y13, 64(R13)
	MOVQ         $12, BX        // first cell of group 3

pass:
	MOVQ   CX, R9
	SUBQ   BX, R9            // whole-group cells left
	JLE    next
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   R12, AX
	CMPQ   R9, $16
	JB     last

full:
	VBROADCASTSD (AX)(R8*8), Y4
	VMOVUPD      (AX)(BX*8), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	VMOVUPD      32(AX)(BX*8), Y6
	VMULPD       Y4, Y6, Y6
	VADDPD       Y6, Y1, Y1
	VMOVUPD      64(AX)(BX*8), Y7
	VMULPD       Y4, Y7, Y7
	VADDPD       Y7, Y2, Y2
	VMOVUPD      96(AX)(BX*8), Y8
	VMULPD       Y4, Y8, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         R10, AX
	CMPQ         AX, R11
	JB           full
	VMOVUPD      Y0, (R13)(BX*8)
	VMOVUPD      Y1, 32(R13)(BX*8)
	VMOVUPD      Y2, 64(R13)(BX*8)
	VMOVUPD      Y3, 96(R13)(BX*8)
	ADDQ         $16, BX
	JMP          pass

last:
	// Fewer than four groups left: group g exists while the cells left
	// exceed 4g.
	VMOVQ        R9, X9
	VPBROADCASTQ X9, Y9
	VPCMPGTQ     GE0, Y9, Y10
	VPCMPGTQ     GE4, Y9, Y11
	VPCMPGTQ     GE8, Y9, Y12
	VPCMPGTQ     GE12, Y9, Y13

lastk:
	VBROADCASTSD (AX)(R8*8), Y4
	VMASKMOVPD   (AX)(BX*8), Y10, Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	VMASKMOVPD   32(AX)(BX*8), Y11, Y6
	VMULPD       Y4, Y6, Y6
	VADDPD       Y6, Y1, Y1
	VMASKMOVPD   64(AX)(BX*8), Y12, Y7
	VMULPD       Y4, Y7, Y7
	VADDPD       Y7, Y2, Y2
	VMASKMOVPD   96(AX)(BX*8), Y13, Y8
	VMULPD       Y4, Y8, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         R10, AX
	CMPQ         AX, R11
	JB           lastk
	VMASKMOVPD   Y0, Y10, (R13)(BX*8)
	VMASKMOVPD   Y1, Y11, 32(R13)(BX*8)
	VMASKMOVPD   Y2, Y12, 64(R13)(BX*8)
	VMASKMOVPD   Y3, Y13, 96(R13)(BX*8)

next:
	INCQ R8
	JMP  row

done:
	VZEROUPPER
	RET
