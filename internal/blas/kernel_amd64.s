#include "textflag.h"

// func kernAVX(k int, a0, a1, b0, b1, b2, b3, c0, c1 *float64)
//
// Sums: Y0 = (s00, s01, s02, s03), Y1 = (s10, s11, s12, s13). Each product
// is formed as (y·x), the column of B times the broadcast A element, and
// added into its sum; the main loop does t…t+3 per trip, transposing the
// 4×4 block of B it loads into four columns, and the tail does the k%4
// last t one at a time.
TEXT ·kernAVX(SB), NOSPLIT, $0-72
	MOVQ k+0(FP), AX
	MOVQ a0+8(FP), SI
	MOVQ a1+16(FP), DI
	MOVQ b0+24(FP), R8
	MOVQ b1+32(FP), R9
	MOVQ b2+40(FP), R10
	MOVQ b3+48(FP), R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
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
	VMULPD Y12, Y4, Y14
	VADDPD Y14, Y0, Y0
	VMULPD Y13, Y4, Y15
	VADDPD Y15, Y1, Y1

	// t+1
	VBROADCASTSD 8(SI)(CX*8), Y12
	VBROADCASTSD 8(DI)(CX*8), Y13
	VMULPD Y12, Y5, Y14
	VADDPD Y14, Y0, Y0
	VMULPD Y13, Y5, Y15
	VADDPD Y15, Y1, Y1

	// t+2
	VBROADCASTSD 16(SI)(CX*8), Y12
	VBROADCASTSD 16(DI)(CX*8), Y13
	VMULPD Y12, Y6, Y14
	VADDPD Y14, Y0, Y0
	VMULPD Y13, Y6, Y15
	VADDPD Y15, Y1, Y1

	// t+3
	VBROADCASTSD 24(SI)(CX*8), Y12
	VBROADCASTSD 24(DI)(CX*8), Y13
	VMULPD Y12, Y7, Y14
	VADDPD Y14, Y0, Y0
	VMULPD Y13, Y7, Y15
	VADDPD Y15, Y1, Y1

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
	VMULPD Y12, Y4, Y14
	VADDPD Y14, Y0, Y0
	VMULPD Y13, Y4, Y15
	VADDPD Y15, Y1, Y1
	INCQ CX
	JMP  tail

update:
	MOVQ    c0+56(FP), SI
	MOVQ    c1+64(FP), DI
	VMOVUPD (SI), Y4
	VSUBPD  Y0, Y4, Y4
	VMOVUPD Y4, (SI)
	VMOVUPD (DI), Y5
	VSUBPD  Y1, Y5, Y5
	VMOVUPD Y5, (DI)
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
