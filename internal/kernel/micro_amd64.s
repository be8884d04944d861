// Micro-kernels and CPU feature probes for the packed base case.
//
// Both kernels compute the same packed 16×8 tile: acc += Ap·Bp, where
// Ap is a 16-row micro-panel (16 float64 per k step, 128 bytes) and Bp
// an 8-column micro-panel (8 float64 per k step, 64 bytes). Each k step
// multiplies one B row by each broadcast A element and adds the product
// to that row's accumulator with one VFMADD231PD, which rounds a·b + c
// once. Per output element the fused multiply-adds form one serial
// ascending-k chain, c = fma(a, b, c), the chain matrix.MulNaive and
// microGo compute with math.FMA, so each element's rounding history is
// identical to the scalar kernel's. Both routines need the FMA CPUID
// bit, which detectISA checks.

#include "textflag.h"

// ZROW applies one k step to accumulator row acc: acc = fma(B row
// (Z16), the A element at off(SI) broadcast to all eight lanes, acc).
#define ZROW(off, acc) VFMADD231PD.BCST off(SI), Z16, acc

// func micro16x8AVX512(ap, bp *float64, kc int, acc *[128]float64)
//
// One ZMM accumulator per output row (Z0–Z15) and the B row in Z16;
// Z17–Z31 are unused.
TEXT ·micro16x8AVX512(SB), NOSPLIT, $0-32
	MOVQ ap+0(FP), SI
	MOVQ bp+8(FP), DI
	MOVQ kc+16(FP), CX
	MOVQ acc+24(FP), DX

	VMOVUPD 0(DX), Z0
	VMOVUPD 64(DX), Z1
	VMOVUPD 128(DX), Z2
	VMOVUPD 192(DX), Z3
	VMOVUPD 256(DX), Z4
	VMOVUPD 320(DX), Z5
	VMOVUPD 384(DX), Z6
	VMOVUPD 448(DX), Z7
	VMOVUPD 512(DX), Z8
	VMOVUPD 576(DX), Z9
	VMOVUPD 640(DX), Z10
	VMOVUPD 704(DX), Z11
	VMOVUPD 768(DX), Z12
	VMOVUPD 832(DX), Z13
	VMOVUPD 896(DX), Z14
	VMOVUPD 960(DX), Z15

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

	VMOVUPD Z0, 0(DX)
	VMOVUPD Z1, 64(DX)
	VMOVUPD Z2, 128(DX)
	VMOVUPD Z3, 192(DX)
	VMOVUPD Z4, 256(DX)
	VMOVUPD Z5, 320(DX)
	VMOVUPD Z6, 384(DX)
	VMOVUPD Z7, 448(DX)
	VMOVUPD Z8, 512(DX)
	VMOVUPD Z9, 576(DX)
	VMOVUPD Z10, 640(DX)
	VMOVUPD Z11, 704(DX)
	VMOVUPD Z12, 768(DX)
	VMOVUPD Z13, 832(DX)
	VMOVUPD Z14, 896(DX)
	VMOVUPD Z15, 960(DX)
	VZEROUPPER
	RET

// YROW applies one k step to the two YMM halves (lo, hi) of one
// accumulator row: the A element at off(R9) is broadcast into t and
// each half becomes fma(t, its B half (Y8, Y9), itself).
#define YROW(off, lo, hi, t) VBROADCASTSD off(R9), t; VFMADD231PD Y8, t, lo; VFMADD231PD Y9, t, hi

// func micro16x8AVX2(ap, bp *float64, kc int, acc *[128]float64)
//
// Four passes over the B micro-panel, one per 4-row sub-tile: eight
// YMM accumulators (Y0–Y7, two per row), the B row's halves in Y8 and
// Y9, the broadcast A elements in Y10–Y13. SI steps through the
// sub-tiles' row offsets within each 128-byte A step, DX through the
// accumulator's 256-byte row groups.
TEXT ·micro16x8AVX2(SB), NOSPLIT, $0-32
	MOVQ ap+0(FP), SI
	MOVQ acc+24(FP), DX
	MOVQ $4, R8

ysub:
	MOVQ SI, R9
	MOVQ bp+8(FP), DI
	MOVQ kc+16(FP), CX
	VMOVUPD 0(DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD 64(DX), Y2
	VMOVUPD 96(DX), Y3
	VMOVUPD 128(DX), Y4
	VMOVUPD 160(DX), Y5
	VMOVUPD 192(DX), Y6
	VMOVUPD 224(DX), Y7

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

	VMOVUPD Y0, 0(DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	ADDQ $32, SI
	ADDQ $256, DX
	DECQ R8
	JNZ  ysub

	VZEROUPPER
	RET

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
