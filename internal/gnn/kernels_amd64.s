#include "textflag.h"

// 256-bit AVX versions of the portable kernels in kernels.go. Each YMM lane
// holds one output element and takes exactly the portable kernel's
// multiplies, adds and subtracts, in its order: packed VMULPD/VADDPD/VSUBPD
// round every lane as the scalar instructions do, and no FMA is used, so the
// results are the same bits. Scalars are broadcast with VBROADCASTSD from
// memory (its register form is AVX2), loads and stores are unaligned
// (VMOVUPD), and the last len mod 4 elements take the scalar VEX forms. Every
// kernel ends in VZEROUPPER, so the SSE code Go runs next pays no transition
// penalty. Only hasAVX's check lets these run (kernels_amd64.go).

// func cpuid1ECX() uint32
// ECX of CPUID leaf 1.
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	MOVL  CX, ret+0(FP)
	RET

// func xgetbv0() uint32
// The low word of extended control register 0 (XCR0); valid only when CPUID
// reports OSXSAVE.
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL   CX, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET

// The sign-clearing mask of math.Abs and the 0.5 of relu.
DATA absMask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL absMask<>(SB), RODATA|NOPTR, $8
DATA half<>+0(SB)/8, $0x3fe0000000000000
GLOBL half<>(SB), RODATA|NOPTR, $8

// func axpyAVX(o, x []float64, a float64)
// o[j] += a*x[j]; x is as long as o.
TEXT ·axpyAVX(SB), NOSPLIT, $0-56
	MOVQ         o_base+0(FP), DI
	MOVQ         o_len+8(FP), CX
	MOVQ         x_base+24(FP), SI
	VBROADCASTSD a+48(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-4, BX
	JZ           tail

quad:
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     quad

tail:
	CMPQ   AX, CX
	JGE    done
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// func axpy4AVX(o, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64)
// o[j] += ((a0*x0[j] + a1*x1[j]) + a2*x2[j]) + a3*x3[j]; the x are as long as o.
TEXT ·axpy4AVX(SB), NOSPLIT, $0-152
	MOVQ         o_base+0(FP), DI
	MOVQ         o_len+8(FP), CX
	MOVQ         x0_base+24(FP), R8
	MOVQ         x1_base+48(FP), R9
	MOVQ         x2_base+72(FP), R10
	MOVQ         x3_base+96(FP), R11
	VBROADCASTSD a0+120(FP), Y0
	VBROADCASTSD a1+128(FP), Y1
	VBROADCASTSD a2+136(FP), Y2
	VBROADCASTSD a3+144(FP), Y3
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-4, BX
	JZ           tail

quad:
	VMOVUPD (R8)(AX*8), Y4
	VMULPD  Y0, Y4, Y4
	VMOVUPD (R9)(AX*8), Y5
	VMULPD  Y1, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD (R10)(AX*8), Y6
	VMULPD  Y2, Y6, Y6
	VADDPD  Y6, Y4, Y4
	VMOVUPD (R11)(AX*8), Y7
	VMULPD  Y3, Y7, Y7
	VADDPD  Y7, Y4, Y4
	VADDPD  (DI)(AX*8), Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     quad

tail:
	CMPQ   AX, CX
	JGE    done
	VMOVSD (R8)(AX*8), X4
	VMULSD X0, X4, X4
	VMOVSD (R9)(AX*8), X5
	VMULSD X1, X5, X5
	VADDSD X5, X4, X4
	VMOVSD (R10)(AX*8), X6
	VMULSD X2, X6, X6
	VADDSD X6, X4, X4
	VMOVSD (R11)(AX*8), X7
	VMULSD X3, X7, X7
	VADDSD X7, X4, X4
	VADDSD (DI)(AX*8), X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// func gemm2AVX(o0, o1, a0, a1, w []float64)
// o0 += a0·w and o1 += a1·w, w row-major with len(a0) rows of len(o0), in
// groups of four rows: each element takes ((a_p·w_p + a_p+1·w_p+1) +
// a_p+2·w_p+2) + a_p+3·w_p+3 per group, as axpy4 adds it, and each load of w
// feeds both output rows. Columns go eight at a time, then four, then the
// last n mod 4 one at a time. len(a0) is a multiple of 4; o1 and a1 are as
// long as o0 and a0.
TEXT ·gemm2AVX(SB), NOSPLIT, $0-120
	MOVQ o0_base+0(FP), DI
	MOVQ o0_len+8(FP), BX
	MOVQ o1_base+24(FP), SI
	MOVQ a0_base+48(FP), R8
	MOVQ a0_len+56(FP), DX
	MOVQ a1_base+72(FP), R9
	MOVQ w_base+96(FP), R10
	MOVQ BX, R11
	SHLQ $3, R11            // R11: row stride of w in bytes
	ANDQ $-8, BX            // BX: columns taken eight at a time
	SHRQ $2, DX             // DX: groups of four rows left
	JZ   done

group:
	// R10, R12, R13, CX: rows p..p+3 of w; Y0-Y3: a0[p..p+3]; Y4-Y7: a1[p..p+3].
	LEAQ         (R10)(R11*1), R12
	LEAQ         (R10)(R11*2), R13
	LEAQ         (R12)(R11*2), CX
	VBROADCASTSD 0(R8), Y0
	VBROADCASTSD 8(R8), Y1
	VBROADCASTSD 16(R8), Y2
	VBROADCASTSD 24(R8), Y3
	VBROADCASTSD 0(R9), Y4
	VBROADCASTSD 8(R9), Y5
	VBROADCASTSD 16(R9), Y6
	VBROADCASTSD 24(R9), Y7
	XORQ         AX, AX
	TESTQ        BX, BX
	JZ           groupquad

groupoct:
	// Y8/Y9 and Y10/Y11: the group's sums for o0 and o1 at columns j..j+3
	// and j+4..j+7; Y12/Y13 hold a row of w, Y14/Y15 one product.
	VMOVUPD (R10)(AX*8), Y12
	VMOVUPD 32(R10)(AX*8), Y13
	VMULPD  Y0, Y12, Y8
	VMULPD  Y0, Y13, Y9
	VMULPD  Y4, Y12, Y10
	VMULPD  Y4, Y13, Y11
	VMOVUPD (R12)(AX*8), Y12
	VMOVUPD 32(R12)(AX*8), Y13
	VMULPD  Y1, Y12, Y14
	VMULPD  Y1, Y13, Y15
	VADDPD  Y14, Y8, Y8
	VADDPD  Y15, Y9, Y9
	VMULPD  Y5, Y12, Y12
	VMULPD  Y5, Y13, Y13
	VADDPD  Y12, Y10, Y10
	VADDPD  Y13, Y11, Y11
	VMOVUPD (R13)(AX*8), Y12
	VMOVUPD 32(R13)(AX*8), Y13
	VMULPD  Y2, Y12, Y14
	VMULPD  Y2, Y13, Y15
	VADDPD  Y14, Y8, Y8
	VADDPD  Y15, Y9, Y9
	VMULPD  Y6, Y12, Y12
	VMULPD  Y6, Y13, Y13
	VADDPD  Y12, Y10, Y10
	VADDPD  Y13, Y11, Y11
	VMOVUPD (CX)(AX*8), Y12
	VMOVUPD 32(CX)(AX*8), Y13
	VMULPD  Y3, Y12, Y14
	VMULPD  Y3, Y13, Y15
	VADDPD  Y14, Y8, Y8
	VADDPD  Y15, Y9, Y9
	VMULPD  Y7, Y12, Y12
	VMULPD  Y7, Y13, Y13
	VADDPD  Y12, Y10, Y10
	VADDPD  Y13, Y11, Y11
	VADDPD  (DI)(AX*8), Y8, Y8
	VADDPD  32(DI)(AX*8), Y9, Y9
	VMOVUPD Y8, (DI)(AX*8)
	VMOVUPD Y9, 32(DI)(AX*8)
	VADDPD  (SI)(AX*8), Y10, Y10
	VADDPD  32(SI)(AX*8), Y11, Y11
	VMOVUPD Y10, (SI)(AX*8)
	VMOVUPD Y11, 32(SI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, BX
	JLT     groupoct

groupquad:
	// Four more columns when bit 2 of n is set: the eight-column step on
	// Y8 and Y10 alone.
	TESTQ   $4, o0_len+8(FP)
	JZ      grouptail
	VMOVUPD (R10)(AX*8), Y12
	VMULPD  Y0, Y12, Y8
	VMULPD  Y4, Y12, Y10
	VMOVUPD (R12)(AX*8), Y12
	VMULPD  Y1, Y12, Y14
	VADDPD  Y14, Y8, Y8
	VMULPD  Y5, Y12, Y12
	VADDPD  Y12, Y10, Y10
	VMOVUPD (R13)(AX*8), Y12
	VMULPD  Y2, Y12, Y14
	VADDPD  Y14, Y8, Y8
	VMULPD  Y6, Y12, Y12
	VADDPD  Y12, Y10, Y10
	VMOVUPD (CX)(AX*8), Y12
	VMULPD  Y3, Y12, Y14
	VADDPD  Y14, Y8, Y8
	VMULPD  Y7, Y12, Y12
	VADDPD  Y12, Y10, Y10
	VADDPD  (DI)(AX*8), Y8, Y8
	VMOVUPD Y8, (DI)(AX*8)
	VADDPD  (SI)(AX*8), Y10, Y10
	VMOVUPD Y10, (SI)(AX*8)
	ADDQ    $4, AX

grouptail:
	// The last n mod 4 columns: the same terms on the low lane alone.
	CMPQ   AX, o0_len+8(FP)
	JGE    groupnext
	VMOVSD (R10)(AX*8), X12
	VMULSD X0, X12, X8
	VMULSD X4, X12, X10
	VMOVSD (R12)(AX*8), X12
	VMULSD X1, X12, X14
	VADDSD X14, X8, X8
	VMULSD X5, X12, X12
	VADDSD X12, X10, X10
	VMOVSD (R13)(AX*8), X12
	VMULSD X2, X12, X14
	VADDSD X14, X8, X8
	VMULSD X6, X12, X12
	VADDSD X12, X10, X10
	VMOVSD (CX)(AX*8), X12
	VMULSD X3, X12, X14
	VADDSD X14, X8, X8
	VMULSD X7, X12, X12
	VADDSD X12, X10, X10
	VADDSD (DI)(AX*8), X8, X8
	VMOVSD X8, (DI)(AX*8)
	VADDSD (SI)(AX*8), X10, X10
	VMOVSD X10, (SI)(AX*8)
	INCQ   AX
	JMP    grouptail

groupnext:
	ADDQ $32, R8
	ADDQ $32, R9
	LEAQ (R13)(R11*2), R10
	DECQ DX
	JNZ  group

done:
	VZEROUPPER
	RET

// func bnReLUAVX(o, mean, scale, beta []float64)
// o[j] = relu((o[j]-mean[j])*scale[j] + beta[j]) in place, relu(y) being
// 0.5*(y+|y|); mean, scale and beta are as long as o.
TEXT ·bnReLUAVX(SB), NOSPLIT, $0-96
	MOVQ         o_base+0(FP), DI
	MOVQ         o_len+8(FP), CX
	MOVQ         mean_base+24(FP), R8
	MOVQ         scale_base+48(FP), R9
	MOVQ         beta_base+72(FP), R10
	VBROADCASTSD absMask<>(SB), Y14
	VBROADCASTSD half<>(SB), Y15
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-4, BX
	JZ           tail

quad:
	VMOVUPD (DI)(AX*8), Y0
	VSUBPD  (R8)(AX*8), Y0, Y0
	VMULPD  (R9)(AX*8), Y0, Y0
	VADDPD  (R10)(AX*8), Y0, Y0
	VANDPD  Y14, Y0, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  Y15, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     quad

tail:
	CMPQ   AX, CX
	JGE    done
	VMOVSD (DI)(AX*8), X0
	VSUBSD (R8)(AX*8), X0, X0
	VMULSD (R9)(AX*8), X0, X0
	VADDSD (R10)(AX*8), X0, X0
	VANDPD X14, X0, X1
	VADDSD X1, X0, X0
	VMULSD X15, X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// func varAccAVX(o, z, mean []float64, inv float64)
// o[j] += ((z[j]-mean[j])*(z[j]-mean[j]))*inv; z and mean are as long as o.
TEXT ·varAccAVX(SB), NOSPLIT, $0-80
	MOVQ         o_base+0(FP), DI
	MOVQ         o_len+8(FP), CX
	MOVQ         z_base+24(FP), SI
	MOVQ         mean_base+48(FP), R8
	VBROADCASTSD inv+72(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-4, BX
	JZ           tail

quad:
	VMOVUPD (SI)(AX*8), Y1
	VSUBPD  (R8)(AX*8), Y1, Y1
	VMULPD  Y1, Y1, Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     quad

tail:
	CMPQ   AX, CX
	JGE    done
	VMOVSD (SI)(AX*8), X1
	VSUBSD (R8)(AX*8), X1, X1
	VMULSD X1, X1, X1
	VMULSD X0, X1, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// func rowAccAVX(o, a []float64, stride, k int, b []float64)
// o[j] += a[p*stride]*b[p*n+j] for p = 0..k-1 in ascending order, n = len(o),
// skipping every p whose a[p*stride] is ±0 (its bits shifted left one place,
// dropping the sign, are zero; a NaN is not skipped). b is row-major k x n,
// k > 0, and a holds (k-1)*stride+1 values. Columns go 32 at a time in the
// eight accumulators Y0-Y7, which stay in registers across all k terms; then
// four at a time in Y0; then the last n mod 4 one at a time in X0.
TEXT ·rowAccAVX(SB), NOSPLIT, $0-88
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), BX    // BX: columns left
	MOVQ a_base+24(FP), R8
	MOVQ stride+48(FP), R9
	SHLQ $3, R9             // R9: stride of a in bytes
	MOVQ k+56(FP), DX
	MOVQ b_base+64(FP), R10 // R10: column j of b's row 0
	MOVQ BX, R11
	SHLQ $3, R11            // R11: row stride of b in bytes

block32:
	CMPQ    BX, $32
	JLT     block4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	MOVQ    R8, SI          // SI: a[p*stride]
	MOVQ    R10, R12        // R12: b[p*n+j]
	MOVQ    DX, CX          // CX: terms left

term32:
	MOVQ         (SI), AX
	SHLQ         $1, AX
	JZ           skip32
	VBROADCASTSD (SI), Y8
	VMULPD       (R12), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       32(R12), Y8, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       64(R12), Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       96(R12), Y8, Y12
	VADDPD       Y12, Y3, Y3
	VMULPD       128(R12), Y8, Y13
	VADDPD       Y13, Y4, Y4
	VMULPD       160(R12), Y8, Y14
	VADDPD       Y14, Y5, Y5
	VMULPD       192(R12), Y8, Y15
	VADDPD       Y15, Y6, Y6
	VMULPD       224(R12), Y8, Y9
	VADDPD       Y9, Y7, Y7

skip32:
	ADDQ R9, SI
	ADDQ R11, R12
	DECQ CX
	JNZ  term32

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, R10
	SUBQ    $32, BX
	JMP     block32

block4:
	CMPQ    BX, $4
	JLT     tail
	VMOVUPD (DI), Y0
	MOVQ    R8, SI
	MOVQ    R10, R12
	MOVQ    DX, CX

term4:
	MOVQ         (SI), AX
	SHLQ         $1, AX
	JZ           skip4
	VBROADCASTSD (SI), Y8
	VMULPD       (R12), Y8, Y9
	VADDPD       Y9, Y0, Y0

skip4:
	ADDQ R9, SI
	ADDQ R11, R12
	DECQ CX
	JNZ  term4

	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, R10
	SUBQ    $4, BX
	JMP     block4

tail:
	TESTQ  BX, BX
	JZ     done
	VMOVSD (DI), X0
	MOVQ   R8, SI
	MOVQ   R10, R12
	MOVQ   DX, CX

term1:
	MOVQ   (SI), AX
	SHLQ   $1, AX
	JZ     skip1
	VMOVSD (SI), X8
	VMULSD (R12), X8, X9
	VADDSD X9, X0, X0

skip1:
	ADDQ R9, SI
	ADDQ R11, R12
	DECQ CX
	JNZ  term1

	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, R10
	DECQ   BX
	JMP    tail

done:
	VZEROUPPER
	RET
