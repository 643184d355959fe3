#include "textflag.h"

// func kernSSE2(k int, a0, a1, b0, b1, b2, b3, c0, c1 *float64)
//
// Sums: X0 = (s00, s01), X1 = (s02, s03), X2 = (s10, s11), X3 = (s12, s13).
// Each product is formed as (y·x), the B pair times the broadcast A element,
// and added into its sum; the main loop does t and t+1 per trip, the tail
// the odd last t.
TEXT ·kernSSE2(SB), NOSPLIT, $0-72
	MOVQ k+0(FP), AX
	MOVQ a0+8(FP), SI
	MOVQ a1+16(FP), DI
	MOVQ b0+24(FP), R8
	MOVQ b1+32(FP), R9
	MOVQ b2+40(FP), R10
	MOVQ b3+48(FP), R11
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ CX, CX
	MOVQ AX, DX
	ANDQ $-2, DX
	JZ   tail

pairs:
	MOVUPD (SI)(CX*8), X4   // (a0[t], a0[t+1])
	MOVUPD (DI)(CX*8), X5   // (a1[t], a1[t+1])
	MOVUPD (R8)(CX*8), X6   // (b0[t], b0[t+1])
	MOVUPD (R9)(CX*8), X7   // (b1[t], b1[t+1])
	MOVUPD (R10)(CX*8), X8  // (b2[t], b2[t+1])
	MOVUPD (R11)(CX*8), X9  // (b3[t], b3[t+1])
	MOVAPD X6, X10
	UNPCKLPD X7, X10        // (b0[t], b1[t])
	UNPCKHPD X7, X6         // (b0[t+1], b1[t+1])
	MOVAPD X8, X11
	UNPCKLPD X9, X11        // (b2[t], b3[t])
	UNPCKHPD X9, X8         // (b2[t+1], b3[t+1])
	MOVAPD X4, X12
	UNPCKLPD X12, X12       // (a0[t], a0[t])
	UNPCKHPD X4, X4         // (a0[t+1], a0[t+1])
	MOVAPD X5, X13
	UNPCKLPD X13, X13       // (a1[t], a1[t])
	UNPCKHPD X5, X5         // (a1[t+1], a1[t+1])

	// t
	MOVAPD X10, X14
	MULPD  X12, X14
	ADDPD  X14, X0
	MOVAPD X11, X15
	MULPD  X12, X15
	ADDPD  X15, X1
	MULPD  X13, X10
	ADDPD  X10, X2
	MULPD  X13, X11
	ADDPD  X11, X3

	// t+1
	MOVAPD X6, X14
	MULPD  X4, X14
	ADDPD  X14, X0
	MOVAPD X8, X15
	MULPD  X4, X15
	ADDPD  X15, X1
	MULPD  X5, X6
	ADDPD  X6, X2
	MULPD  X5, X8
	ADDPD  X8, X3

	ADDQ $2, CX
	CMPQ CX, DX
	JLT  pairs

tail:
	CMPQ CX, AX
	JGE  update
	MOVSD    (SI)(CX*8), X12
	UNPCKLPD X12, X12       // (a0[t], a0[t])
	MOVSD    (DI)(CX*8), X13
	UNPCKLPD X13, X13       // (a1[t], a1[t])
	MOVSD    (R8)(CX*8), X10
	MOVHPD   (R9)(CX*8), X10  // (b0[t], b1[t])
	MOVSD    (R10)(CX*8), X11
	MOVHPD   (R11)(CX*8), X11 // (b2[t], b3[t])
	MOVAPD X10, X14
	MULPD  X12, X14
	ADDPD  X14, X0
	MOVAPD X11, X15
	MULPD  X12, X15
	ADDPD  X15, X1
	MULPD  X13, X10
	ADDPD  X10, X2
	MULPD  X13, X11
	ADDPD  X11, X3

update:
	MOVQ   c0+56(FP), SI
	MOVQ   c1+64(FP), DI
	MOVUPD (SI), X4
	SUBPD  X0, X4
	MOVUPD X4, (SI)
	MOVUPD 16(SI), X5
	SUBPD  X1, X5
	MOVUPD X5, 16(SI)
	MOVUPD (DI), X6
	SUBPD  X2, X6
	MOVUPD X6, (DI)
	MOVUPD 16(DI), X7
	SUBPD  X3, X7
	MOVUPD X7, 16(DI)
	RET
