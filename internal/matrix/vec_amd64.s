#include "textflag.h"

// AVX 4×8 GEMM micro-kernel. One call updates one 4×8 block of C held
// in eight YMM accumulators (Y0..Y7: row r in Y(2r), Y(2r+1)). Per k it
// loads the eight B values of row k, broadcasts the four A values of
// column k, and updates each accumulator with VMULPD then VADDPD (or
// VSUBPD): two separately rounded operations, exactly what Go emits for
// the scalar s += a*b. FMA is never used, so every C element sees the
// same rounded operation sequence, in the same ascending-k order, as
// the scalar i-k-j reference loop.
//
// Register use: DI = C, AX = A (column k of row 0), BX = B (row k),
// R10 = ldc bytes, R11 = 3·ldc bytes, R8 = lda bytes, R9 = 3·lda bytes,
// DX = ldb bytes, CX = k remaining.

#define SETUP \
	MOVQ c+0(FP), DI; \
	MOVQ ldc+8(FP), R10; \
	SHLQ $3, R10; \
	LEAQ (R10)(R10*2), R11; \
	MOVQ a+16(FP), AX; \
	MOVQ lda+24(FP), R8; \
	SHLQ $3, R8; \
	LEAQ (R8)(R8*2), R9; \
	MOVQ b+32(FP), BX; \
	MOVQ ldb+40(FP), DX; \
	SHLQ $3, DX; \
	MOVQ k+48(FP), CX; \
	VMOVUPD (DI), Y0; \
	VMOVUPD 32(DI), Y1; \
	VMOVUPD (DI)(R10*1), Y2; \
	VMOVUPD 32(DI)(R10*1), Y3; \
	VMOVUPD (DI)(R10*2), Y4; \
	VMOVUPD 32(DI)(R10*2), Y5; \
	VMOVUPD (DI)(R11*1), Y6; \
	VMOVUPD 32(DI)(R11*1), Y7

// STEP applies one k step with OP (VADDPD or VSUBPD) as the update.
#define STEP(OP) \
	VMOVUPD (BX), Y8; \
	VMOVUPD 32(BX), Y9; \
	VBROADCASTSD (AX), Y10; \
	VBROADCASTSD (AX)(R8*1), Y11; \
	VBROADCASTSD (AX)(R8*2), Y12; \
	VBROADCASTSD (AX)(R9*1), Y13; \
	VMULPD Y8, Y10, Y14; \
	VMULPD Y9, Y10, Y15; \
	OP Y14, Y0, Y0; \
	OP Y15, Y1, Y1; \
	VMULPD Y8, Y11, Y14; \
	VMULPD Y9, Y11, Y15; \
	OP Y14, Y2, Y2; \
	OP Y15, Y3, Y3; \
	VMULPD Y8, Y12, Y14; \
	VMULPD Y9, Y12, Y15; \
	OP Y14, Y4, Y4; \
	OP Y15, Y5, Y5; \
	VMULPD Y8, Y13, Y14; \
	VMULPD Y9, Y13, Y15; \
	OP Y14, Y6, Y6; \
	OP Y15, Y7, Y7; \
	ADDQ $8, AX; \
	ADDQ DX, BX

#define STORE \
	VMOVUPD Y0, (DI); \
	VMOVUPD Y1, 32(DI); \
	VMOVUPD Y2, (DI)(R10*1); \
	VMOVUPD Y3, 32(DI)(R10*1); \
	VMOVUPD Y4, (DI)(R10*2); \
	VMOVUPD Y5, 32(DI)(R10*2); \
	VMOVUPD Y6, (DI)(R11*1); \
	VMOVUPD Y7, 32(DI)(R11*1); \
	VZEROUPPER

// func mulAdd4x8AVX(c *float64, ldc int, a *float64, lda int, b *float64, ldb int, k int)
TEXT ·mulAdd4x8AVX(SB), NOSPLIT, $0-56
	SETUP
	TESTQ CX, CX
	JEQ   done

loop:
	STEP(VADDPD)
	DECQ CX
	JNE  loop

done:
	STORE
	RET

// func mulSub4x8AVX(c *float64, ldc int, a *float64, lda int, b *float64, ldb int, k int)
TEXT ·mulSub4x8AVX(SB), NOSPLIT, $0-56
	SETUP
	TESTQ CX, CX
	JEQ   done

loop:
	STEP(VSUBPD)
	DECQ CX
	JNE  loop

done:
	STORE
	RET

// func cpuHasAVX() bool
//
// AVX is usable when CPUID.1:ECX reports both AVX (bit 28) and OSXSAVE
// (bit 27), and XCR0 shows the OS saves XMM and YMM state (bits 1–2).
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   no
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   no
	MOVB  $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
