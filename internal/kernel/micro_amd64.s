// Micro-kernels for the packed base case.
//
// Both routines compute the same packed 16×8 tile, acc = seed + Ap·Bp,
// where Ap is a 16-row micro-panel (16 float64 per k step, 128 bytes)
// and Bp an 8-column micro-panel (8 float64 per k step, 64 bytes). Each
// k step multiplies one B row by each broadcast A element and adds the
// product to that row's accumulator with one VFMADD231PD, which rounds
// a·b + c once. Per output element the fused multiply-adds form one
// serial ascending-k chain, c = fma(a, b, c), the chain
// matrix.MulNaive and microGo compute with math.FMA, so each element's
// rounding history is identical to the scalar kernel's. Both routines
// need the FMA CPUID bit, which internal/cpu checks.
//
// The accumulators never pass through memory of their own: they start
// from the first output's tile (seed) or from zero in registers, and
// after the k loop each tileOut receives them in place through its
// pointer and byte row stride. The write-out keeps the Go loop's two
// roundings, a VMULPD and a VADDPD, never a fused multiply-add:
//
//	mode 0 (tileSet):   c = coeff·acc
//	mode 1 (tileAdd):   c = c + coeff·acc
//	mode 2 (tileStore): c = acc
//
// Go checks every pointer's extent before the call (tileAt, microTile).
// PCALIGN pins each loop head to a 64-byte boundary, so the loops'
// code placement does not move with the offsets of the functions
// around them.

#include "textflag.h"

// tileOut field offsets (micro.go).
#define OUT_C 0
#define OUT_LDC 8
#define OUT_COEFF 16
#define OUT_MODE 24
#define OUT_SIZE 32

// ZROW applies one k step to accumulator row acc: acc = fma(B row
// (Z16), the A element at off(SI) broadcast to all eight lanes, acc).
#define ZROW(off, acc) VFMADD231PD.BCST off(SI), Z16, acc

// Per-row tile moves at DX, stepping DX by the row stride in BX. Z17
// holds the broadcast coefficient and Z18 the scaled row.
#define ZLOAD(z) VMOVUPD (DX), z; ADDQ BX, DX
#define ZSTORE(z) VMOVUPD z, (DX); ADDQ BX, DX
#define ZSET(z) VMULPD Z17, z, Z18; VMOVUPD Z18, (DX); ADDQ BX, DX
#define ZADD(z) VMULPD Z17, z, Z18; VADDPD (DX), Z18, Z18; VMOVUPD Z18, (DX); ADDQ BX, DX
#define ZTILE(op) op(Z0); op(Z1); op(Z2); op(Z3); op(Z4); op(Z5); op(Z6); op(Z7); op(Z8); op(Z9); op(Z10); op(Z11); op(Z12); op(Z13); op(Z14); op(Z15)

// func micro16x8AVX512(ap, bp *float64, kc int, seed bool, outs *tileOut, n int)
//
// One ZMM accumulator per output row (Z0–Z15) and the B row in Z16;
// Z17 and Z18 serve the write-out.
TEXT ·micro16x8AVX512(SB), NOSPLIT, $0-48
	MOVQ    ap+0(FP), SI
	MOVQ    bp+8(FP), DI
	MOVQ    kc+16(FP), CX
	MOVQ    outs+32(FP), R8
	MOVBQZX seed+24(FP), AX
	TESTQ   AX, AX
	JZ      zzero
	MOVQ    OUT_C(R8), DX
	MOVQ    OUT_LDC(R8), BX
	ZTILE(ZLOAD)
	JMP     zloop

zzero:
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

	PCALIGN $64

zloop:
	VMOVUPD (DI), Z16
	ZROW(0, Z0)
	ZROW(8, Z1)
	ZROW(16, Z2)
	ZROW(24, Z3)
	ZROW(32, Z4)
	ZROW(40, Z5)
	ZROW(48, Z6)
	ZROW(56, Z7)
	ZROW(64, Z8)
	ZROW(72, Z9)
	ZROW(80, Z10)
	ZROW(88, Z11)
	ZROW(96, Z12)
	ZROW(104, Z13)
	ZROW(112, Z14)
	ZROW(120, Z15)
	ADDQ $128, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  zloop

	MOVQ n+40(FP), CX
	PCALIGN $64

zout:
	MOVQ OUT_C(R8), DX
	MOVQ OUT_LDC(R8), BX
	MOVQ OUT_MODE(R8), AX
	CMPQ AX, $1
	JLT  zset
	JEQ  zadd
	ZTILE(ZSTORE)
	JMP  znext

zset:
	VBROADCASTSD OUT_COEFF(R8), Z17
	ZTILE(ZSET)
	JMP          znext

zadd:
	VBROADCASTSD OUT_COEFF(R8), Z17
	ZTILE(ZADD)

znext:
	ADDQ $OUT_SIZE, R8
	DECQ CX
	JNZ  zout

	VZEROUPPER
	RET

// YROW applies one k step to the two YMM halves (lo, hi) of one
// accumulator row: the A element at off(R9) is broadcast into t and
// each half becomes fma(t, its B half (Y8, Y9), itself).
#define YROW(off, lo, hi, t) VBROADCASTSD off(R9), t; VFMADD231PD Y8, t, lo; VFMADD231PD Y9, t, hi

// Per-row moves of one sub-tile row's two halves at DX, stepping DX by
// the row stride in BX. Y8 holds the broadcast coefficient, Y9 and Y10
// the scaled halves.
#define YLOAD(lo, hi) VMOVUPD (DX), lo; VMOVUPD 32(DX), hi; ADDQ BX, DX
#define YSTORE(lo, hi) VMOVUPD lo, (DX); VMOVUPD hi, 32(DX); ADDQ BX, DX
#define YSET(lo, hi) VMULPD Y8, lo, Y9; VMOVUPD Y9, (DX); VMULPD Y8, hi, Y10; VMOVUPD Y10, 32(DX); ADDQ BX, DX
#define YADD(lo, hi) VMULPD Y8, lo, Y9; VADDPD (DX), Y9, Y9; VMOVUPD Y9, (DX); VMULPD Y8, hi, Y10; VADDPD 32(DX), Y10, Y10; VMOVUPD Y10, 32(DX); ADDQ BX, DX
#define YTILE(op) op(Y0, Y1); op(Y2, Y3); op(Y4, Y5); op(Y6, Y7)

// YAT points DX at the current sub-tile of the tileOut at R8 (row R10)
// and loads its row stride into BX.
#define YAT MOVQ OUT_LDC(R8), BX; MOVQ BX, DX; IMULQ R10, DX; ADDQ OUT_C(R8), DX

// func micro16x8AVX2(ap, bp *float64, kc int, seed bool, outs *tileOut, n int)
//
// Four passes over the B micro-panel, one per 4-row sub-tile: eight
// YMM accumulators (Y0–Y7, two per row), the B row's halves in Y8 and
// Y9, the broadcast A elements in Y10–Y13. Each sub-tile is written to
// every output before the next starts; SI steps through the sub-tiles'
// row offsets within each 128-byte A step, R10 through their first
// rows.
TEXT ·micro16x8AVX2(SB), NOSPLIT, $0-48
	MOVQ    ap+0(FP), SI
	XORQ    R10, R10
	PCALIGN $64

ysub:
	MOVQ    SI, R9
	MOVQ    bp+8(FP), DI
	MOVQ    kc+16(FP), CX
	MOVQ    outs+32(FP), R8
	MOVBQZX seed+24(FP), AX
	TESTQ   AX, AX
	JZ      yzero
	YAT
	YTILE(YLOAD)
	JMP     yloop

yzero:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	PCALIGN $64

yloop:
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	YROW(0, Y0, Y1, Y10)
	YROW(8, Y2, Y3, Y11)
	YROW(16, Y4, Y5, Y12)
	YROW(24, Y6, Y7, Y13)
	ADDQ $128, R9
	ADDQ $64, DI
	DECQ CX
	JNZ  yloop

	MOVQ n+40(FP), CX
	PCALIGN $64

yout:
	YAT
	MOVQ OUT_MODE(R8), AX
	CMPQ AX, $1
	JLT  yset
	JEQ  yadd
	YTILE(YSTORE)
	JMP  ynext

yset:
	VBROADCASTSD OUT_COEFF(R8), Y8
	YTILE(YSET)
	JMP          ynext

yadd:
	VBROADCASTSD OUT_COEFF(R8), Y8
	YTILE(YADD)

ynext:
	ADDQ $OUT_SIZE, R8
	DECQ CX
	JNZ  yout

	ADDQ $32, SI
	ADDQ $4, R10
	CMPQ R10, $16
	JLT  ysub

	VZEROUPPER
	RET
