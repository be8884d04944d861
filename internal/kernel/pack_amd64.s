// Vector pack routines for packA and packB.
//
// Each call applies one term of an operand's linear combination to one
// full micro-panel, by mode, with the rounding of the Go loops in
// pack.go (packRowStrided, packColsContig):
//
//	mode 0 (packCopy):   p = v         VMOVUPD
//	mode 1 (packNeg):    p = −v        sign-bit VPXORQ/VXORPD, like Go's −v
//	mode 2 (packScale):  p = c·v       VMULPD
//	mode 3 (packAdd):    p = p + v     VADDPD
//	mode 4 (packSub):    p = p − v     VSUBPD
//	mode 5 (packMulAdd): p = p + c·v   VMULPD, then VADDPD; never fused
//
// The panel value is the first operand of every add and subtract, as
// in Go's p += v. The source is src with rows ld bytes apart.
//
// The A routines pack rows 0–15 of kc k steps (kc a positive multiple
// of the vector width) into a 16-row micro-panel, stored k-major: the
// 16 row elements of one k step are 128 contiguous bytes. Each loop
// step loads a square block of source rows (row r, consecutive k),
// applies the term's source-side operation element by element,
// transposes the block in registers and stores or accumulates it as
// the matching half (AVX-512, 8×8) or quarter (AVX2, 4×4) of each k
// step's panel row. The B routines pack kc ≥ 1 k steps of one 8-wide
// source row each into an 8-column micro-panel, 64 bytes per k step.
//
// Go checks every pointer's extent before the call (packAVec,
// packBVec) and packs ragged panels and the A routines' k tail itself.
// PCALIGN pins each loop head to a 64-byte boundary, so the loops'
// code placement does not move with the offsets of the functions
// around them.

#include "textflag.h"

// DISPATCH jumps to the loop label of the mode in AX.
#define DISPATCH(copy, neg, scale, add, sub, muladd) \
	CMPQ AX, $1; JLT copy; JEQ neg; \
	CMPQ AX, $3; JLT scale; JEQ add; \
	CMPQ AX, $4; JEQ sub; JMP muladd

// Source-side operations: load the source vector at m into register
// z, negated (sign mask in Z31/Y15) or scaled (coefficient in Z30/Y14)
// on the way.
#define ZMOV(m, z) VMOVUPD m, z
#define ZNEG(m, z) VPXORQ m, Z31, z
#define ZMUL(m, z) VMULPD m, Z30, z
#define YMOV(m, y) VMOVUPD m, y
#define YNEG(m, y) VXORPD m, Y15, y
#define YMUL(m, y) VMULPD m, Y14, y

// Panel-side operations on the vector at off(DX): store z, or replace
// the panel value p with p + z or p − z (Z24/Y12 hold p).
#define ZSET(z, off) VMOVUPD z, off(DX)
#define ZADD(z, off) VMOVUPD off(DX), Z24; VADDPD z, Z24, Z24; VMOVUPD Z24, off(DX)
#define ZSUB(z, off) VMOVUPD off(DX), Z24; VSUBPD z, Z24, Z24; VMOVUPD Z24, off(DX)
#define YSET(y, off) VMOVUPD y, off(DX)
#define YADD(y, off) VMOVUPD off(DX), Y12; VADDPD y, Y12, Y12; VMOVUPD Y12, off(DX)
#define YSUB(y, off) VMOVUPD off(DX), Y12; VSUBPD y, Y12, Y12; VMOVUPD Y12, off(DX)

// ZROWS loads the 8×8 block of source rows 0–3 at R8 and 4–7 at R9
// (BX = ld, R10 = 3·ld) into Z0–Z7 through the source-side op.
#define ZROWS(op) \
	op((R8), Z0); op((R8)(BX*1), Z1); op((R8)(BX*2), Z2); op((R8)(R10*1), Z3); \
	op((R9), Z4); op((R9)(BX*1), Z5); op((R9)(BX*2), Z6); op((R9)(R10*1), Z7)

// ZTRANS transposes Z0–Z7 (row r, k steps 0–7) into Z8–Z15 (k step k,
// rows 0–7) through Z16–Z23: interleave row pairs, then two stages of
// 128-bit lane shuffles (24 shuffles).
#define ZTRANS \
	VUNPCKLPD Z1, Z0, Z16; VUNPCKHPD Z1, Z0, Z17; \
	VUNPCKLPD Z3, Z2, Z18; VUNPCKHPD Z3, Z2, Z19; \
	VUNPCKLPD Z5, Z4, Z20; VUNPCKHPD Z5, Z4, Z21; \
	VUNPCKLPD Z7, Z6, Z22; VUNPCKHPD Z7, Z6, Z23; \
	VSHUFF64X2 $0x88, Z18, Z16, Z0; VSHUFF64X2 $0xDD, Z18, Z16, Z1; \
	VSHUFF64X2 $0x88, Z19, Z17, Z2; VSHUFF64X2 $0xDD, Z19, Z17, Z3; \
	VSHUFF64X2 $0x88, Z22, Z20, Z4; VSHUFF64X2 $0xDD, Z22, Z20, Z5; \
	VSHUFF64X2 $0x88, Z23, Z21, Z6; VSHUFF64X2 $0xDD, Z23, Z21, Z7; \
	VSHUFF64X2 $0x88, Z4, Z0, Z8; VSHUFF64X2 $0xDD, Z4, Z0, Z12; \
	VSHUFF64X2 $0x88, Z5, Z1, Z10; VSHUFF64X2 $0xDD, Z5, Z1, Z14; \
	VSHUFF64X2 $0x88, Z6, Z2, Z9; VSHUFF64X2 $0xDD, Z6, Z2, Z13; \
	VSHUFF64X2 $0x88, Z7, Z3, Z11; VSHUFF64X2 $0xDD, Z7, Z3, Z15

// ZABLOCK packs one 8×8 block: load through pre, transpose, write the
// eight 64-byte half-rows through post, then step the source by eight
// k steps, the panel by eight k-step rows and count down R11.
#define ZABLOCK(pre, post) \
	ZROWS(pre); ZTRANS; \
	post(Z8, 0); post(Z9, 128); post(Z10, 256); post(Z11, 384); \
	post(Z12, 512); post(Z13, 640); post(Z14, 768); post(Z15, 896); \
	ADDQ $64, R8; ADDQ $64, R9; ADDQ $1024, DX; DECQ R11

// func packAAVX512(panel, src *float64, ld, kc int, coeff float64, mode int)
//
// Two passes, rows 0–7 into bytes 0–63 of each k step's panel row and
// rows 8–15 into bytes 64–127; R12 counts them.
TEXT ·packAAVX512(SB), NOSPLIT, $0-48
	MOVQ         panel+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         ld+16(FP), BX
	MOVQ         kc+24(FP), CX
	VBROADCASTSD coeff+32(FP), Z30
	MOVQ         mode+40(FP), AX
	VPTERNLOGQ   $0xFF, Z31, Z31, Z31
	VPSLLQ       $63, Z31, Z31
	LEAQ         (BX)(BX*2), R10
	SHRQ         $3, CX
	MOVQ         $2, R12
	PCALIGN      $64

zahalf:
	MOVQ SI, R8
	LEAQ (SI)(BX*4), R9
	MOVQ DI, DX
	MOVQ CX, R11
	DISPATCH(zacopy, zaneg, zascale, zaadd, zasub, zamuladd)

	PCALIGN $64

zacopy:
	ZABLOCK(ZMOV, ZSET)
	JNZ zacopy
	JMP zanext

	PCALIGN $64

zaneg:
	ZABLOCK(ZNEG, ZSET)
	JNZ zaneg
	JMP zanext

	PCALIGN $64

zascale:
	ZABLOCK(ZMUL, ZSET)
	JNZ zascale
	JMP zanext

	PCALIGN $64

zaadd:
	ZABLOCK(ZMOV, ZADD)
	JNZ zaadd
	JMP zanext

	PCALIGN $64

zasub:
	ZABLOCK(ZMOV, ZSUB)
	JNZ zasub
	JMP zanext

	PCALIGN $64

zamuladd:
	ZABLOCK(ZMUL, ZADD)
	JNZ zamuladd

zanext:
	LEAQ (SI)(BX*8), SI
	ADDQ $64, DI
	DECQ R12
	JNZ  zahalf

	VZEROUPPER
	RET

// YROWS loads the 4×4 block of source rows 0–3 at R8 (BX = ld,
// R10 = 3·ld) into Y0–Y3 through the source-side op.
#define YROWS(op) op((R8), Y0); op((R8)(BX*1), Y1); op((R8)(BX*2), Y2); op((R8)(R10*1), Y3)

// YTRANS transposes Y0–Y3 (row r, k steps 0–3) into Y8–Y11 (k step k,
// rows 0–3) through Y4–Y7: interleave row pairs, then swap 128-bit
// lanes (8 shuffles).
#define YTRANS \
	VUNPCKLPD Y1, Y0, Y4; VUNPCKHPD Y1, Y0, Y5; \
	VUNPCKLPD Y3, Y2, Y6; VUNPCKHPD Y3, Y2, Y7; \
	VPERM2F128 $0x20, Y6, Y4, Y8; VPERM2F128 $0x20, Y7, Y5, Y9; \
	VPERM2F128 $0x31, Y6, Y4, Y10; VPERM2F128 $0x31, Y7, Y5, Y11

// YABLOCK packs one 4×4 block: load through pre, transpose, write the
// four 32-byte quarter-rows through post, then step the source by four
// k steps, the panel by four k-step rows and count down R11.
#define YABLOCK(pre, post) \
	YROWS(pre); YTRANS; \
	post(Y8, 0); post(Y9, 128); post(Y10, 256); post(Y11, 384); \
	ADDQ $32, R8; ADDQ $512, DX; DECQ R11

// func packAAVX2(panel, src *float64, ld, kc int, coeff float64, mode int)
//
// Four passes, rows 4q to 4q+3 into bytes 32q to 32q+31 of each k
// step's panel row; R12 counts them.
TEXT ·packAAVX2(SB), NOSPLIT, $0-48
	MOVQ         panel+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         ld+16(FP), BX
	MOVQ         kc+24(FP), CX
	VBROADCASTSD coeff+32(FP), Y14
	MOVQ         mode+40(FP), AX
	VPCMPEQQ     Y15, Y15, Y15
	VPSLLQ       $63, Y15, Y15
	LEAQ         (BX)(BX*2), R10
	SHRQ         $2, CX
	MOVQ         $4, R12
	PCALIGN      $64

yaquarter:
	MOVQ SI, R8
	MOVQ DI, DX
	MOVQ CX, R11
	DISPATCH(yacopy, yaneg, yascale, yaadd, yasub, yamuladd)

	PCALIGN $64

yacopy:
	YABLOCK(YMOV, YSET)
	JNZ yacopy
	JMP yanext

	PCALIGN $64

yaneg:
	YABLOCK(YNEG, YSET)
	JNZ yaneg
	JMP yanext

	PCALIGN $64

yascale:
	YABLOCK(YMUL, YSET)
	JNZ yascale
	JMP yanext

	PCALIGN $64

yaadd:
	YABLOCK(YMOV, YADD)
	JNZ yaadd
	JMP yanext

	PCALIGN $64

yasub:
	YABLOCK(YMOV, YSUB)
	JNZ yasub
	JMP yanext

	PCALIGN $64

yamuladd:
	YABLOCK(YMUL, YADD)
	JNZ yamuladd

yanext:
	LEAQ (SI)(BX*4), SI
	ADDQ $32, DI
	DECQ R12
	JNZ  yaquarter

	VZEROUPPER
	RET

// ZBROW and YBROW pack one k step of a B micro-panel: the 8-wide source
// row at SI through pre, written through post at DX, then step SI by
// ld (BX), DX by 64 bytes and count down CX.
#define ZBROW(pre, post) \
	pre((SI), Z0); post(Z0, 0); \
	ADDQ BX, SI; ADDQ $64, DX; DECQ CX
#define YBROW(pre, post) \
	pre((SI), Y0); pre(32(SI), Y1); post(Y0, 0); post(Y1, 32); \
	ADDQ BX, SI; ADDQ $64, DX; DECQ CX

// func packBAVX512(panel, src *float64, ld, kc int, coeff float64, mode int)
TEXT ·packBAVX512(SB), NOSPLIT, $0-48
	MOVQ         panel+0(FP), DX
	MOVQ         src+8(FP), SI
	MOVQ         ld+16(FP), BX
	MOVQ         kc+24(FP), CX
	VBROADCASTSD coeff+32(FP), Z30
	MOVQ         mode+40(FP), AX
	VPTERNLOGQ   $0xFF, Z31, Z31, Z31
	VPSLLQ       $63, Z31, Z31
	DISPATCH(zbcopy, zbneg, zbscale, zbadd, zbsub, zbmuladd)

	PCALIGN $64

zbcopy:
	ZBROW(ZMOV, ZSET)
	JNZ zbcopy
	JMP zbdone

	PCALIGN $64

zbneg:
	ZBROW(ZNEG, ZSET)
	JNZ zbneg
	JMP zbdone

	PCALIGN $64

zbscale:
	ZBROW(ZMUL, ZSET)
	JNZ zbscale
	JMP zbdone

	PCALIGN $64

zbadd:
	ZBROW(ZMOV, ZADD)
	JNZ zbadd
	JMP zbdone

	PCALIGN $64

zbsub:
	ZBROW(ZMOV, ZSUB)
	JNZ zbsub
	JMP zbdone

	PCALIGN $64

zbmuladd:
	ZBROW(ZMUL, ZADD)
	JNZ zbmuladd

zbdone:
	VZEROUPPER
	RET

// func packBAVX2(panel, src *float64, ld, kc int, coeff float64, mode int)
TEXT ·packBAVX2(SB), NOSPLIT, $0-48
	MOVQ         panel+0(FP), DX
	MOVQ         src+8(FP), SI
	MOVQ         ld+16(FP), BX
	MOVQ         kc+24(FP), CX
	VBROADCASTSD coeff+32(FP), Y14
	MOVQ         mode+40(FP), AX
	VPCMPEQQ     Y15, Y15, Y15
	VPSLLQ       $63, Y15, Y15
	DISPATCH(ybcopy, ybneg, ybscale, ybadd, ybsub, ybmuladd)

	PCALIGN $64

ybcopy:
	YBROW(YMOV, YSET)
	JNZ ybcopy
	JMP ybdone

	PCALIGN $64

ybneg:
	YBROW(YNEG, YSET)
	JNZ ybneg
	JMP ybdone

	PCALIGN $64

ybscale:
	YBROW(YMUL, YSET)
	JNZ ybscale
	JMP ybdone

	PCALIGN $64

ybadd:
	YBROW(YMOV, YADD)
	JNZ ybadd
	JMP ybdone

	PCALIGN $64

ybsub:
	YBROW(YMOV, YSUB)
	JNZ ybsub
	JMP ybdone

	PCALIGN $64

ybmuladd:
	YBROW(YMUL, YADD)
	JNZ ybmuladd

ybdone:
	VZEROUPPER
	RET
