#include "textflag.h"

// SSE2 versions of the portable kernels in kernels.go. Each XMM lane holds one
// output element and takes exactly the portable kernel's multiplies and adds,
// in its order: packed MULPD/ADDPD round every lane as the scalar MULSD/ADDSD
// do, so the results are the same bits. Scalars are broadcast with UNPCKLPD
// (MOVDDUP is SSE3), loads are unaligned (MOVUPD), and an odd last element
// takes the scalar instructions.

// func axpySSE2(o, x []float64, a float64)
// o[j] += a*x[j]; x is as long as o.
TEXT ·axpySSE2(SB), NOSPLIT, $0-56
	MOVQ     o_base+0(FP), DI
	MOVQ     o_len+8(FP), CX
	MOVQ     x_base+24(FP), SI
	MOVSD    a+48(FP), X0
	UNPCKLPD X0, X0
	XORQ     AX, AX
	MOVQ     CX, BX
	ANDQ     $-2, BX
	JZ       tail

pair:
	MOVUPD (SI)(AX*8), X1
	MULPD  X0, X1
	MOVUPD (DI)(AX*8), X2
	ADDPD  X1, X2
	MOVUPD X2, (DI)(AX*8)
	ADDQ   $2, AX
	CMPQ   AX, BX
	JLT    pair

tail:
	CMPQ  AX, CX
	JGE   done
	MOVSD (SI)(AX*8), X1
	MULSD X0, X1
	MOVSD (DI)(AX*8), X2
	ADDSD X1, X2
	MOVSD X2, (DI)(AX*8)

done:
	RET

// func axpy4SSE2(o, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64)
// o[j] += ((a0*x0[j] + a1*x1[j]) + a2*x2[j]) + a3*x3[j]; the x are as long as o.
TEXT ·axpy4SSE2(SB), NOSPLIT, $0-152
	MOVQ     o_base+0(FP), DI
	MOVQ     o_len+8(FP), CX
	MOVQ     x0_base+24(FP), R8
	MOVQ     x1_base+48(FP), R9
	MOVQ     x2_base+72(FP), R10
	MOVQ     x3_base+96(FP), R11
	MOVSD    a0+120(FP), X0
	UNPCKLPD X0, X0
	MOVSD    a1+128(FP), X1
	UNPCKLPD X1, X1
	MOVSD    a2+136(FP), X2
	UNPCKLPD X2, X2
	MOVSD    a3+144(FP), X3
	UNPCKLPD X3, X3
	XORQ     AX, AX
	MOVQ     CX, BX
	ANDQ     $-2, BX
	JZ       tail

pair:
	MOVUPD (R8)(AX*8), X4
	MULPD  X0, X4
	MOVUPD (R9)(AX*8), X5
	MULPD  X1, X5
	ADDPD  X5, X4
	MOVUPD (R10)(AX*8), X6
	MULPD  X2, X6
	ADDPD  X6, X4
	MOVUPD (R11)(AX*8), X7
	MULPD  X3, X7
	ADDPD  X7, X4
	MOVUPD (DI)(AX*8), X5
	ADDPD  X4, X5
	MOVUPD X5, (DI)(AX*8)
	ADDQ   $2, AX
	CMPQ   AX, BX
	JLT    pair

tail:
	CMPQ  AX, CX
	JGE   done
	MOVSD (R8)(AX*8), X4
	MULSD X0, X4
	MOVSD (R9)(AX*8), X5
	MULSD X1, X5
	ADDSD X5, X4
	MOVSD (R10)(AX*8), X6
	MULSD X2, X6
	ADDSD X6, X4
	MOVSD (R11)(AX*8), X7
	MULSD X3, X7
	ADDSD X7, X4
	MOVSD (DI)(AX*8), X5
	ADDSD X4, X5
	MOVSD X5, (DI)(AX*8)

done:
	RET

// func gemm2SSE2(o0, o1, a0, a1, w []float64)
// o0 += a0·w and o1 += a1·w, w row-major with len(a0) rows of len(o0), in
// groups of four rows: each element takes ((a_p·w_p + a_p+1·w_p+1) +
// a_p+2·w_p+2) + a_p+3·w_p+3 per group, as axpy4 adds it, and each load of w
// feeds both output rows. Columns go four at a time, the last n mod 4 one at
// a time. len(a0) is a multiple of 4; o1 and a1 are as long as o0 and a0.
TEXT ·gemm2SSE2(SB), NOSPLIT, $0-120
	MOVQ o0_base+0(FP), DI
	MOVQ o0_len+8(FP), BX
	MOVQ o1_base+24(FP), SI
	MOVQ a0_base+48(FP), R8
	MOVQ a0_len+56(FP), DX
	MOVQ a1_base+72(FP), R9
	MOVQ w_base+96(FP), R10
	MOVQ BX, R11
	SHLQ $3, R11            // R11: row stride of w in bytes
	ANDQ $-4, BX            // BX: columns taken four at a time
	SHRQ $2, DX             // DX: groups of four rows left
	JZ   done

group:
	// R10, R12, R13, CX: rows p..p+3 of w; X0-X3: a0[p..p+3]; X4-X7: a1[p..p+3].
	LEAQ     (R10)(R11*1), R12
	LEAQ     (R10)(R11*2), R13
	LEAQ     (R12)(R11*2), CX
	MOVSD    0(R8), X0
	UNPCKLPD X0, X0
	MOVSD    8(R8), X1
	UNPCKLPD X1, X1
	MOVSD    16(R8), X2
	UNPCKLPD X2, X2
	MOVSD    24(R8), X3
	UNPCKLPD X3, X3
	MOVSD    0(R9), X4
	UNPCKLPD X4, X4
	MOVSD    8(R9), X5
	UNPCKLPD X5, X5
	MOVSD    16(R9), X6
	UNPCKLPD X6, X6
	MOVSD    24(R9), X7
	UNPCKLPD X7, X7
	XORQ     AX, AX
	TESTQ    BX, BX
	JZ       grouptail

groupquad:
	// X8/X9 and X12/X13: the group's sums for o0/o1 at columns j..j+1 and
	// j+2..j+3.
	MOVUPD (R10)(AX*8), X8
	MOVUPD 16(R10)(AX*8), X12
	MOVAPD X8, X9
	MOVAPD X12, X13
	MULPD  X0, X8
	MULPD  X4, X9
	MULPD  X0, X12
	MULPD  X4, X13
	MOVUPD (R12)(AX*8), X10
	MOVUPD 16(R12)(AX*8), X14
	MOVAPD X10, X11
	MOVAPD X14, X15
	MULPD  X1, X10
	MULPD  X5, X11
	MULPD  X1, X14
	MULPD  X5, X15
	ADDPD  X10, X8
	ADDPD  X11, X9
	ADDPD  X14, X12
	ADDPD  X15, X13
	MOVUPD (R13)(AX*8), X10
	MOVUPD 16(R13)(AX*8), X14
	MOVAPD X10, X11
	MOVAPD X14, X15
	MULPD  X2, X10
	MULPD  X6, X11
	MULPD  X2, X14
	MULPD  X6, X15
	ADDPD  X10, X8
	ADDPD  X11, X9
	ADDPD  X14, X12
	ADDPD  X15, X13
	MOVUPD (CX)(AX*8), X10
	MOVUPD 16(CX)(AX*8), X14
	MOVAPD X10, X11
	MOVAPD X14, X15
	MULPD  X3, X10
	MULPD  X7, X11
	MULPD  X3, X14
	MULPD  X7, X15
	ADDPD  X10, X8
	ADDPD  X11, X9
	ADDPD  X14, X12
	ADDPD  X15, X13
	MOVUPD (DI)(AX*8), X10
	MOVUPD 16(DI)(AX*8), X14
	ADDPD  X8, X10
	ADDPD  X12, X14
	MOVUPD X10, (DI)(AX*8)
	MOVUPD X14, 16(DI)(AX*8)
	MOVUPD (SI)(AX*8), X11
	MOVUPD 16(SI)(AX*8), X15
	ADDPD  X9, X11
	ADDPD  X13, X15
	MOVUPD X11, (SI)(AX*8)
	MOVUPD X15, 16(SI)(AX*8)
	ADDQ   $4, AX
	CMPQ   AX, BX
	JLT    groupquad

grouptail:
	CMPQ   AX, o0_len+8(FP)
	JGE    groupnext
	MOVSD  (R10)(AX*8), X8
	MOVAPD X8, X9
	MULSD  X0, X8
	MULSD  X4, X9
	MOVSD  (R12)(AX*8), X10
	MOVAPD X10, X11
	MULSD  X1, X10
	MULSD  X5, X11
	ADDSD  X10, X8
	ADDSD  X11, X9
	MOVSD  (R13)(AX*8), X10
	MOVAPD X10, X11
	MULSD  X2, X10
	MULSD  X6, X11
	ADDSD  X10, X8
	ADDSD  X11, X9
	MOVSD  (CX)(AX*8), X10
	MOVAPD X10, X11
	MULSD  X3, X10
	MULSD  X7, X11
	ADDSD  X10, X8
	ADDSD  X11, X9
	MOVSD  (DI)(AX*8), X10
	ADDSD  X8, X10
	MOVSD  X10, (DI)(AX*8)
	MOVSD  (SI)(AX*8), X11
	ADDSD  X9, X11
	MOVSD  X11, (SI)(AX*8)
	INCQ   AX
	JMP    grouptail

groupnext:
	ADDQ $32, R8
	ADDQ $32, R9
	LEAQ (R13)(R11*2), R10
	DECQ DX
	JNZ  group

done:
	RET
