// Vector row routines for combineRows and addScaledRows.
//
// Each routine runs over n > 0 elements, a multiple of its vector
// width, one vector per iteration, and rounds every element exactly as
// the Go loops do: a VMULPD per product and a VADDPD per sum, never a
// fused multiply-add (the Go compiler does not fuse x += c*y on amd64
// either). PCALIGN pins each loop head to a 64-byte boundary, so the
// loops' code placement does not move with the offsets of the
// functions around them.

#include "textflag.h"

// func combine2AVX512(d, x, y *float64, n int, c0, c1 float64)
//
// d = c0·x + c1·y, eight elements per iteration.
TEXT ·combine2AVX512(SB), NOSPLIT, $0-48
	MOVQ         d+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSD c0+32(FP), Z0
	VBROADCASTSD c1+40(FP), Z1
	SHRQ         $3, CX
	PCALIGN      $64

z2loop:
	VMULPD  (SI), Z0, Z2
	VMULPD  (DX), Z1, Z3
	VADDPD  Z3, Z2, Z2
	VMOVUPD Z2, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DX
	ADDQ    $64, DI
	DECQ    CX
	JNZ     z2loop

	VZEROUPPER
	RET

// func axpyAVX512(d, x *float64, n int, c float64)
//
// d = d + c·x, eight elements per iteration.
TEXT ·axpyAVX512(SB), NOSPLIT, $0-32
	MOVQ         d+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD c+24(FP), Z0
	SHRQ         $3, CX
	PCALIGN      $64

zaloop:
	VMULPD  (SI), Z0, Z2
	VADDPD  (DI), Z2, Z2
	VMOVUPD Z2, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     zaloop

	VZEROUPPER
	RET

// func combine2AVX2(d, x, y *float64, n int, c0, c1 float64)
//
// d = c0·x + c1·y, four elements per iteration.
TEXT ·combine2AVX2(SB), NOSPLIT, $0-48
	MOVQ         d+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSD c0+32(FP), Y0
	VBROADCASTSD c1+40(FP), Y1
	SHRQ         $2, CX
	PCALIGN      $64

y2loop:
	VMULPD  (SI), Y0, Y2
	VMULPD  (DX), Y1, Y3
	VADDPD  Y3, Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     y2loop

	VZEROUPPER
	RET

// func axpyAVX2(d, x *float64, n int, c float64)
//
// d = d + c·x, four elements per iteration.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	MOVQ         d+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD c+24(FP), Y0
	SHRQ         $2, CX
	PCALIGN      $64

yaloop:
	VMULPD  (SI), Y0, Y2
	VADDPD  (DI), Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     yaloop

	VZEROUPPER
	RET
