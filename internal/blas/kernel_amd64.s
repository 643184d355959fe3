#include "textflag.h"

// func kernAVX(k int, a *float64, lda int, b *float64, ldb int, c *float64, ldc int)
//
// Sums: Yi = (si0, si1, si2, si3) for A row i, i = 0…3. Each product is
// formed as (y·x), the column of B times the broadcast A element, and
// added into its sum; the main loop does t…t+3 per trip, transposing the
// 4×4 block of B it loads into four columns that all four rows use, and
// the tail does the k%4 last t one at a time.
//
// Registers: SI, DI, BX, R12 point at A's four rows and R8…R11 at B's;
// AX is k, CX the index t, DX the bound of the main loop.
TEXT ·kernAVX(SB), NOSPLIT, $0-56
	MOVQ k+0(FP), AX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), DX
	SHLQ $3, DX
	LEAQ (SI)(DX*1), DI
	LEAQ (DI)(DX*1), BX
	LEAQ (BX)(DX*1), R12
	MOVQ b+24(FP), R8
	MOVQ ldb+32(FP), DX
	SHLQ $3, DX
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ CX, CX
	MOVQ AX, DX
	ANDQ $-4, DX
	JZ   tail

quads:
	VMOVUPD (R8)(CX*8), Y4            // b0[t:t+4]
	VMOVUPD (R9)(CX*8), Y5            // b1[t:t+4]
	VMOVUPD (R10)(CX*8), Y6           // b2[t:t+4]
	VMOVUPD (R11)(CX*8), Y7           // b3[t:t+4]
	VUNPCKLPD Y5, Y4, Y8              // (b0[t], b1[t], b0[t+2], b1[t+2])
	VUNPCKHPD Y5, Y4, Y9              // (b0[t+1], b1[t+1], b0[t+3], b1[t+3])
	VUNPCKLPD Y7, Y6, Y10             // (b2[t], b3[t], b2[t+2], b3[t+2])
	VUNPCKHPD Y7, Y6, Y11             // (b2[t+1], b3[t+1], b2[t+3], b3[t+3])
	VPERM2F128 $0x20, Y10, Y8, Y4     // column t
	VPERM2F128 $0x20, Y11, Y9, Y5     // column t+1
	VPERM2F128 $0x31, Y10, Y8, Y6     // column t+2
	VPERM2F128 $0x31, Y11, Y9, Y7     // column t+3

	// t
	VBROADCASTSD (SI)(CX*8), Y12
	VBROADCASTSD (DI)(CX*8), Y13
	VBROADCASTSD (BX)(CX*8), Y14
	VBROADCASTSD (R12)(CX*8), Y15
	VMULPD Y12, Y4, Y12
	VMULPD Y13, Y4, Y13
	VMULPD Y14, Y4, Y14
	VMULPD Y15, Y4, Y15
	VADDPD Y12, Y0, Y0
	VADDPD Y13, Y1, Y1
	VADDPD Y14, Y2, Y2
	VADDPD Y15, Y3, Y3

	// t+1
	VBROADCASTSD 8(SI)(CX*8), Y12
	VBROADCASTSD 8(DI)(CX*8), Y13
	VBROADCASTSD 8(BX)(CX*8), Y14
	VBROADCASTSD 8(R12)(CX*8), Y15
	VMULPD Y12, Y5, Y12
	VMULPD Y13, Y5, Y13
	VMULPD Y14, Y5, Y14
	VMULPD Y15, Y5, Y15
	VADDPD Y12, Y0, Y0
	VADDPD Y13, Y1, Y1
	VADDPD Y14, Y2, Y2
	VADDPD Y15, Y3, Y3

	// t+2
	VBROADCASTSD 16(SI)(CX*8), Y12
	VBROADCASTSD 16(DI)(CX*8), Y13
	VBROADCASTSD 16(BX)(CX*8), Y14
	VBROADCASTSD 16(R12)(CX*8), Y15
	VMULPD Y12, Y6, Y12
	VMULPD Y13, Y6, Y13
	VMULPD Y14, Y6, Y14
	VMULPD Y15, Y6, Y15
	VADDPD Y12, Y0, Y0
	VADDPD Y13, Y1, Y1
	VADDPD Y14, Y2, Y2
	VADDPD Y15, Y3, Y3

	// t+3
	VBROADCASTSD 24(SI)(CX*8), Y12
	VBROADCASTSD 24(DI)(CX*8), Y13
	VBROADCASTSD 24(BX)(CX*8), Y14
	VBROADCASTSD 24(R12)(CX*8), Y15
	VMULPD Y12, Y7, Y12
	VMULPD Y13, Y7, Y13
	VMULPD Y14, Y7, Y14
	VMULPD Y15, Y7, Y15
	VADDPD Y12, Y0, Y0
	VADDPD Y13, Y1, Y1
	VADDPD Y14, Y2, Y2
	VADDPD Y15, Y3, Y3

	ADDQ $4, CX
	CMPQ CX, DX
	JLT  quads

tail:
	CMPQ CX, AX
	JGE  update
	VMOVSD  (R8)(CX*8), X4
	VMOVHPD (R9)(CX*8), X4, X4        // (b0[t], b1[t])
	VMOVSD  (R10)(CX*8), X5
	VMOVHPD (R11)(CX*8), X5, X5       // (b2[t], b3[t])
	VINSERTF128 $1, X5, Y4, Y4        // column t
	VBROADCASTSD (SI)(CX*8), Y12
	VBROADCASTSD (DI)(CX*8), Y13
	VBROADCASTSD (BX)(CX*8), Y14
	VBROADCASTSD (R12)(CX*8), Y15
	VMULPD Y12, Y4, Y12
	VMULPD Y13, Y4, Y13
	VMULPD Y14, Y4, Y14
	VMULPD Y15, Y4, Y15
	VADDPD Y12, Y0, Y0
	VADDPD Y13, Y1, Y1
	VADDPD Y14, Y2, Y2
	VADDPD Y15, Y3, Y3
	INCQ CX
	JMP  tail

update:
	MOVQ    c+40(FP), SI
	MOVQ    ldc+48(FP), DX
	SHLQ    $3, DX
	VMOVUPD (SI), Y4
	VSUBPD  Y0, Y4, Y4
	VMOVUPD Y4, (SI)
	ADDQ    DX, SI
	VMOVUPD (SI), Y5
	VSUBPD  Y1, Y5, Y5
	VMOVUPD Y5, (SI)
	ADDQ    DX, SI
	VMOVUPD (SI), Y6
	VSUBPD  Y2, Y6, Y6
	VMOVUPD Y6, (SI)
	ADDQ    DX, SI
	VMOVUPD (SI), Y7
	VSUBPD  Y3, Y7, Y7
	VMOVUPD Y7, (SI)
	VZEROUPPER
	RET

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
