#include "textflag.h"

// The tile kernels: o (+)= a·b on an m×m block, m a positive multiple of 8,
// one 4-row × 8-column tile of o at a time.  A tile lives in Y0–Y7 (row r in
// Y(2r), columns 0–3, and Y(2r+1), columns 4–7) for the whole k loop; each
// k loads b's row k of the tile's columns into Y8 and Y9 and, per row,
// broadcasts a[i+r, k] into Y10, multiplies into Y11 and Y12, and adds those
// to the accumulators.
//
// Registers:
//	SI  a, row i of the strip, column 0    DI  b, row 0, column 0
//	DX  o, row i of the strip, column 0    BX  the tile's column offset, j·8
//	AX  a, row i, column k                 CX  b, row k, column j (o's tile at its ends)
//	R8  sa·8    R9  sb·8    R10  so·8      R13  3·sa·8
//	R11 m·8     R12 strips left            R14  k left
// BP is left alone, and Y15 too (Go code expects X15 zero).

// LOADTILE loads the tile of o at CX into the accumulators; CX moves one row
// down.
#define LOADTILE(MOV) \
	MOV (CX), Y0 \
	MOV 32(CX), Y1 \
	MOV (CX)(R10*1), Y2 \
	MOV 32(CX)(R10*1), Y3 \
	MOV (CX)(R10*2), Y4 \
	MOV 32(CX)(R10*2), Y5 \
	ADDQ R10, CX \
	MOV (CX)(R10*2), Y6 \
	MOV 32(CX)(R10*2), Y7

// STORETILE stores the accumulators to the tile of o at CX; CX moves one
// row down.
#define STORETILE(MOV) \
	MOV Y0, (CX) \
	MOV Y1, 32(CX) \
	MOV Y2, (CX)(R10*1) \
	MOV Y3, 32(CX)(R10*1) \
	MOV Y4, (CX)(R10*2) \
	MOV Y5, 32(CX)(R10*2) \
	ADDQ R10, CX \
	MOV Y6, (CX)(R10*2) \
	MOV Y7, 32(CX)(R10*2)

// BROW loads b's row k of the tile's columns, at CX.
#define BROW(MOV) \
	MOV (CX), Y8 \
	MOV 32(CX), Y9

// PRODUCT stores one row's k = 0 products, a·b, in its accumulators.
#define PRODUCT(BCAST, MUL, src, lo, hi) \
	BCAST src, Y10 \
	MUL Y8, Y10, lo \
	MUL Y9, Y10, hi

// ACCUM adds one row's products to its accumulators: the product is
// rounded, then added, and the accumulator is the add's first source.
#define ACCUM(BCAST, MUL, ADD, src, lo, hi) \
	BCAST src, Y10 \
	MUL Y8, Y10, Y11 \
	MUL Y9, Y10, Y12 \
	ADD Y11, lo, lo \
	ADD Y12, hi, hi

// SETUP loads the arguments into the registers above.
#define SETUP \
	MOVQ a+0(FP), SI \
	MOVQ b+8(FP), DI \
	MOVQ o+16(FP), DX \
	MOVQ sa+24(FP), R8 \
	SHLQ $3, R8 \
	MOVQ sb+32(FP), R9 \
	SHLQ $3, R9 \
	MOVQ so+40(FP), R10 \
	SHLQ $3, R10 \
	MOVQ m+48(FP), R11 \
	MOVQ R11, R12 \
	SHRQ $2, R12 \
	SHLQ $3, R11 \
	LEAQ (R8)(R8*2), R13

// func mulTileF64(a, b, o *float64, sa, sb, so, m int64, store bool)
TEXT ·mulTileF64(SB), NOSPLIT, $0-57
	SETUP

strip:
	XORQ BX, BX

tile:
	MOVQ SI, AX
	MOVQ R11, R14
	SHRQ $3, R14
	CMPB store+56(FP), $0
	JNE  first
	LEAQ (DX)(BX*1), CX
	LOADTILE(VMOVUPD)
	LEAQ (DI)(BX*1), CX
	JMP  loop

first:
	LEAQ (DI)(BX*1), CX
	BROW(VMOVUPD)
	PRODUCT(VBROADCASTSD, VMULPD, (AX), Y0, Y1)
	PRODUCT(VBROADCASTSD, VMULPD, (AX)(R8*1), Y2, Y3)
	PRODUCT(VBROADCASTSD, VMULPD, (AX)(R8*2), Y4, Y5)
	PRODUCT(VBROADCASTSD, VMULPD, (AX)(R13*1), Y6, Y7)
	ADDQ $8, AX
	ADDQ R9, CX
	DECQ R14

loop:
	BROW(VMOVUPD)
	ACCUM(VBROADCASTSD, VMULPD, VADDPD, (AX), Y0, Y1)
	ACCUM(VBROADCASTSD, VMULPD, VADDPD, (AX)(R8*1), Y2, Y3)
	ACCUM(VBROADCASTSD, VMULPD, VADDPD, (AX)(R8*2), Y4, Y5)
	ACCUM(VBROADCASTSD, VMULPD, VADDPD, (AX)(R13*1), Y6, Y7)
	ADDQ $8, AX
	ADDQ R9, CX
	DECQ R14
	JNZ  loop

	LEAQ (DX)(BX*1), CX
	STORETILE(VMOVUPD)
	ADDQ $64, BX
	CMPQ BX, R11
	JLT  tile

	LEAQ (SI)(R8*4), SI
	LEAQ (DX)(R10*4), DX
	DECQ R12
	JNZ  strip
	VZEROUPPER
	RET

// func mulTileI64(a, b, o *int64, sa, sb, so, m int64, store bool)
TEXT ·mulTileI64(SB), NOSPLIT, $0-57
	SETUP

strip:
	XORQ BX, BX

tile:
	MOVQ SI, AX
	MOVQ R11, R14
	SHRQ $3, R14
	CMPB store+56(FP), $0
	JNE  first
	LEAQ (DX)(BX*1), CX
	LOADTILE(VMOVDQU)
	LEAQ (DI)(BX*1), CX
	JMP  loop

first:
	LEAQ (DI)(BX*1), CX
	BROW(VMOVDQU)
	PRODUCT(VPBROADCASTQ, VPMULLQ, (AX), Y0, Y1)
	PRODUCT(VPBROADCASTQ, VPMULLQ, (AX)(R8*1), Y2, Y3)
	PRODUCT(VPBROADCASTQ, VPMULLQ, (AX)(R8*2), Y4, Y5)
	PRODUCT(VPBROADCASTQ, VPMULLQ, (AX)(R13*1), Y6, Y7)
	ADDQ $8, AX
	ADDQ R9, CX
	DECQ R14

loop:
	BROW(VMOVDQU)
	ACCUM(VPBROADCASTQ, VPMULLQ, VPADDQ, (AX), Y0, Y1)
	ACCUM(VPBROADCASTQ, VPMULLQ, VPADDQ, (AX)(R8*1), Y2, Y3)
	ACCUM(VPBROADCASTQ, VPMULLQ, VPADDQ, (AX)(R8*2), Y4, Y5)
	ACCUM(VPBROADCASTQ, VPMULLQ, VPADDQ, (AX)(R13*1), Y6, Y7)
	ADDQ $8, AX
	ADDQ R9, CX
	DECQ R14
	JNZ  loop

	LEAQ (DX)(BX*1), CX
	STORETILE(VMOVDQU)
	ADDQ $64, BX
	CMPQ BX, R11
	JLT  tile

	LEAQ (SI)(R8*4), SI
	LEAQ (DX)(R10*4), DX
	DECQ R12
	JNZ  strip
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
