#include "textflag.h"

// func kernFMA(k int, a *float64, lda int, b *float64, ldb int, c *float64, ldc int)
//
// Sums: Yi = (si0, si1, si2, si3) for A row i, i = 0…7. Each product is
// formed as (y·x), the column of B times the broadcast A element, and
// fused into its sum with one rounding; the main loop does t…t+3 per trip,
// transposing the 4×4 block of B it loads into four columns (Y8…Y11) that
// all eight rows use, and the tail does the k%4 last t one at a time.
//
// Registers: SI points at A row 0 and DI at row 4, R8 at B row 0; all
// three advance with t. BX is lda and R12 3·lda in bytes, so A's rows are
// SI, SI+BX, SI+2·BX, SI+R12 and the same from DI; R9 and R10 are ldb and
// 3·ldb, B's rows R8, R8+R9, R8+2·R9, R8+R10. AX is k, DX the trips left.
// Y12…Y15 hold the broadcast elements of A.

// STEP fuses column col (b0[t]…b3[t]) times A's eight elements at byte
// offset off from the row pointers into the eight sums.
#define STEP(off, col) \
	VBROADCASTSD off(SI), Y12;       \
	VBROADCASTSD off(SI)(BX*1), Y13; \
	VBROADCASTSD off(SI)(BX*2), Y14; \
	VBROADCASTSD off(SI)(R12*1), Y15; \
	VFMADD231PD  Y12, col, Y0;       \
	VFMADD231PD  Y13, col, Y1;       \
	VFMADD231PD  Y14, col, Y2;       \
	VFMADD231PD  Y15, col, Y3;       \
	VBROADCASTSD off(DI), Y12;       \
	VBROADCASTSD off(DI)(BX*1), Y13; \
	VBROADCASTSD off(DI)(BX*2), Y14; \
	VBROADCASTSD off(DI)(R12*1), Y15; \
	VFMADD231PD  Y12, col, Y4;       \
	VFMADD231PD  Y13, col, Y5;       \
	VFMADD231PD  Y14, col, Y6;       \
	VFMADD231PD  Y15, col, Y7

// UPDATE subtracts sum from the C row at SI and moves SI to the next row.
#define UPDATE(sum) \
	VMOVUPD (SI), Y8;    \
	VSUBPD  sum, Y8, Y8; \
	VMOVUPD Y8, (SI);    \
	ADDQ    DX, SI

TEXT ·kernFMA(SB), NOSPLIT, $0-56
	MOVQ k+0(FP), AX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), BX
	SHLQ $3, BX
	LEAQ (BX)(BX*2), R12
	LEAQ (SI)(BX*4), DI
	MOVQ b+24(FP), R8
	MOVQ ldb+32(FP), R9
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R10
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ AX, DX
	SHRQ $2, DX
	JZ   tail

quads:
	VMOVUPD (R8), Y8                  // b0[t:t+4]
	VMOVUPD (R8)(R9*1), Y9            // b1[t:t+4]
	VMOVUPD (R8)(R9*2), Y10           // b2[t:t+4]
	VMOVUPD (R8)(R10*1), Y11          // b3[t:t+4]
	VUNPCKLPD Y9, Y8, Y12             // (b0[t], b1[t], b0[t+2], b1[t+2])
	VUNPCKHPD Y9, Y8, Y13             // (b0[t+1], b1[t+1], b0[t+3], b1[t+3])
	VUNPCKLPD Y11, Y10, Y14           // (b2[t], b3[t], b2[t+2], b3[t+2])
	VUNPCKHPD Y11, Y10, Y15           // (b2[t+1], b3[t+1], b2[t+3], b3[t+3])
	VPERM2F128 $0x20, Y14, Y12, Y8    // column t
	VPERM2F128 $0x20, Y15, Y13, Y9    // column t+1
	VPERM2F128 $0x31, Y14, Y12, Y10   // column t+2
	VPERM2F128 $0x31, Y15, Y13, Y11   // column t+3
	STEP(0, Y8)
	STEP(8, Y9)
	STEP(16, Y10)
	STEP(24, Y11)
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	DECQ DX
	JNZ  quads

tail:
	ANDQ $3, AX
	JZ   update

single:
	VMOVSD  (R8), X8
	VMOVHPD (R8)(R9*1), X8, X8        // (b0[t], b1[t])
	VMOVSD  (R8)(R9*2), X9
	VMOVHPD (R8)(R10*1), X9, X9       // (b2[t], b3[t])
	VINSERTF128 $1, X9, Y8, Y8        // column t
	STEP(0, Y8)
	ADDQ $8, SI
	ADDQ $8, DI
	ADDQ $8, R8
	DECQ AX
	JNZ  single

update:
	MOVQ c+40(FP), SI
	MOVQ ldc+48(FP), DX
	SHLQ $3, DX
	UPDATE(Y0)
	UPDATE(Y1)
	UPDATE(Y2)
	UPDATE(Y3)
	UPDATE(Y4)
	UPDATE(Y5)
	UPDATE(Y6)
	UPDATE(Y7)
	VZEROUPPER
	RET

// func kernAVX512(k int, a *float64, lda int, p *float64, c *float64, ldc int, store bool)
//
// Sums: Z(2i) = (si0, …, si7) and Z(2i+1) = (si8, …, si15) for A row i,
// i = 0…7. Each k-step loads the packed panel's 16-wide row t into Z16
// and Z17, broadcasts each of A's eight elements once into Z18 and fuses
// it, times the two halves, into its row's two sums with one rounding
// each; the main loop does t…t+3 per trip, the tail the k%4 last t one at
// a time.
//
// Registers: SI points at A row 0 and DI at row 4, R8 at the panel's row
// t; all three advance with t. BX is lda and R12 3·lda in bytes, so A's
// rows are SI, SI+BX, SI+2·BX, SI+R12 and the same from DI. AX is k, DX
// the trips left.
//
// The rows of the C block are prefetched before the k loop: they are read
// only after it, and in a tile task they often come from past L2, so a
// load issued then would stall the update; R9…R11 address them. With
// store set, the sums are written to C as they are and C is not read.

// PROW fuses A's element at addr, broadcast, times the panel row in Z16
// and Z17 into the sums lo and hi.
#define PROW(addr, lo, hi) \
	VBROADCASTSD addr, Z18;    \
	VFMADD231PD  Z18, Z16, lo; \
	VFMADD231PD  Z18, Z17, hi

// PSTEP loads the panel row at byte offsets poff0 and poff1 from R8 and
// fuses it times A's eight elements at byte offset off from the row
// pointers into the sixteen sums.
#define PSTEP(off, poff0, poff1) \
	VMOVUPD poff0(R8), Z16;        \
	VMOVUPD poff1(R8), Z17;        \
	PROW(off(SI), Z0, Z1);         \
	PROW(off(SI)(BX*1), Z2, Z3);   \
	PROW(off(SI)(BX*2), Z4, Z5);   \
	PROW(off(SI)(R12*1), Z6, Z7);  \
	PROW(off(DI), Z8, Z9);         \
	PROW(off(DI)(BX*1), Z10, Z11); \
	PROW(off(DI)(BX*2), Z12, Z13); \
	PROW(off(DI)(R12*1), Z14, Z15)

// PREFETCH4 prefetches the two cache lines of each of four C rows from R9
// and moves R9 four rows on.
#define PREFETCH4 \
	PREFETCHT0 (R9);          \
	PREFETCHT0 64(R9);        \
	PREFETCHT0 (R9)(R10*1);   \
	PREFETCHT0 64(R9)(R10*1); \
	PREFETCHT0 (R9)(R10*2);   \
	PREFETCHT0 64(R9)(R10*2); \
	PREFETCHT0 (R9)(R11*1);   \
	PREFETCHT0 64(R9)(R11*1); \
	LEAQ       (R9)(R10*4), R9

// PUPDATE subtracts the sums lo and hi from the 16-wide C row at SI and
// moves SI to the next row; PSTORE writes them there instead.
#define PUPDATE(lo, hi) \
	VMOVUPD (SI), Z16;    \
	VMOVUPD 64(SI), Z17;  \
	VSUBPD  lo, Z16, Z16; \
	VSUBPD  hi, Z17, Z17; \
	VMOVUPD Z16, (SI);    \
	VMOVUPD Z17, 64(SI);  \
	ADDQ    DX, SI

#define PSTORE(lo, hi) \
	VMOVUPD lo, (SI);   \
	VMOVUPD hi, 64(SI); \
	ADDQ    DX, SI

TEXT ·kernAVX512(SB), NOSPLIT, $0-49
	MOVQ k+0(FP), AX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), BX
	SHLQ $3, BX
	LEAQ (BX)(BX*2), R12
	LEAQ (SI)(BX*4), DI
	MOVQ p+24(FP), R8
	MOVQ c+32(FP), R9
	MOVQ ldc+40(FP), R10
	SHLQ $3, R10
	LEAQ (R10)(R10*2), R11
	PREFETCH4
	PREFETCH4
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	MOVQ AX, DX
	SHRQ $2, DX
	JZ   ptail

pquads:
	PSTEP(0, 0, 64)
	PSTEP(8, 128, 192)
	PSTEP(16, 256, 320)
	PSTEP(24, 384, 448)
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $512, R8
	DECQ DX
	JNZ  pquads

ptail:
	ANDQ $3, AX
	JZ   pupdate

psingle:
	PSTEP(0, 0, 64)
	ADDQ $8, SI
	ADDQ $8, DI
	ADDQ $128, R8
	DECQ AX
	JNZ  psingle

pupdate:
	MOVQ    c+32(FP), SI
	MOVQ    ldc+40(FP), DX
	SHLQ    $3, DX
	MOVBLZX store+48(FP), AX
	TESTQ   AX, AX
	JNZ     pstore
	PUPDATE(Z0, Z1)
	PUPDATE(Z2, Z3)
	PUPDATE(Z4, Z5)
	PUPDATE(Z6, Z7)
	PUPDATE(Z8, Z9)
	PUPDATE(Z10, Z11)
	PUPDATE(Z12, Z13)
	PUPDATE(Z14, Z15)
	VZEROUPPER
	RET

pstore:
	PSTORE(Z0, Z1)
	PSTORE(Z2, Z3)
	PSTORE(Z4, Z5)
	PSTORE(Z6, Z7)
	PSTORE(Z8, Z9)
	PSTORE(Z10, Z11)
	PSTORE(Z12, Z13)
	PSTORE(Z14, Z15)
	VZEROUPPER
	RET

// func cpuid(leaf uint32) (eax, ebx, ecx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-20
	MOVL leaf+0(FP), AX
	XORL CX, CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
