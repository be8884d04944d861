package kernel

import "math"

// The register micro-kernel. MR×NR is the register-tile shape: one call
// accumulates an MR×NR tile of the product over a kc-deep slice of the
// inner dimension, reading the operands from packed micro-panels so
// every load is unit-stride and every accumulator lives in a register
// for the whole k loop.
//
// 16×8 is sized to AVX-512. Register budget: one 8-lane ZMM register
// holds one output row, so the tile is sixteen accumulators plus the B
// row, and the broadcast A element is a memory operand of the fused
// multiply-add. Without AVX-512 the same tile runs as four 4×8
// sub-tiles, each eight YMM accumulators (two per row) plus the two B
// halves and four broadcast A elements in the 16 YMM registers.
//
// Why so many accumulators: each k step issues one fused multiply-add
// per accumulator on two shared vector ports, and an FMA cannot start
// until the previous FMA into the same accumulator has finished (4
// cycles on current x86 cores). Keeping both ports busy takes at least
// eight independent chains; sixteen give every chain twice that slack.
// Both tile extents divide 64, so the power-of-two base blocks the
// recursion produces never have ragged micro-panels.
const (
	// MR is the number of A rows (product rows) per register tile.
	MR = 16
	// NR is the number of B columns (product columns) per register tile.
	NR = 8
)

// isa names one routine that computes the packed MR×NR tile. All of
// them apply each product to its accumulator as one fused multiply-add
// (c = fma(a, b, c), a single rounding), one k at a time in ascending
// order, so they agree to the bit and differ only in speed.
type isa uint8

const (
	// isaGo is the portable Go loop (microGo). On amd64 it runs only on
	// hosts without FMA, where math.FMA is emulated in software: correct
	// to the bit but slow.
	isaGo isa = iota
	// isaAVX2 computes the tile as four 4×8 sub-tiles in YMM registers.
	isaAVX2
	// isaAVX512 holds the whole tile in sixteen ZMM accumulators.
	isaAVX512
)

// useISA is the routine microKernel runs. It starts as hostISA, the
// widest routine the CPU and OS support (probed once at init); tests
// lower it to check the narrower routines against each other on the
// same host. Library code never writes it.
var useISA = hostISA

// microKernel accumulates acc += Ap·Bp over one packed micro-panel
// pair: ap is an MR-row micro-panel stored k-major (the MR row elements
// of one k adjacent), bp an NR-column micro-panel stored k-major, both
// holding kc steps. acc is the row-major MR×NR register tile.
//
// Each routine gives every output element the same rounding chain as
// the textbook triple loop, which is what lets the packed path pin
// bitwise equality with MulNaive: one fused multiply-add per k,
// rounding a·b + c once, in ascending k. MulNaive uses math.FMA for the
// same reason, so the contract holds on every architecture rather than
// only where the compiler happens not to fuse c += a*b.
//
//abmm:hotpath
func microKernel(ap, bp []float64, acc *[MR * NR]float64) {
	kc := min(len(ap)/MR, len(bp)/NR)
	switch {
	case kc == 0:
	case useISA == isaAVX512:
		micro16x8AVX512(&ap[0], &bp[0], kc, acc)
	case useISA == isaAVX2:
		micro16x8AVX2(&ap[0], &bp[0], kc, acc)
	default:
		microGo(ap[:kc*MR], bp[:kc*NR], acc)
	}
}

// microGo is the portable micro-kernel. The k loop advances both slices
// in lock step, and the fixed-size array views let the compiler drop
// the bounds checks inside it. Scalar code is bound by the FP ports,
// not by where the accumulators live: a hand-unrolled tile held in
// named locals measured no faster. math.FMA compiles to one fused
// instruction on arm64 and on amd64 hosts with FMA; an amd64 host
// without FMA (pre-2013) takes this routine and emulates every FMA in
// software, which is correct but far slower than the vector routines.
//
//abmm:hotpath
func microGo(ap, bp []float64, acc *[MR * NR]float64) {
	for len(ap) >= MR && len(bp) >= NR {
		b := (*[NR]float64)(bp)
		for r, a := range (*[MR]float64)(ap) {
			c := (*[NR]float64)(acc[r*NR:])
			for x, v := range b {
				c[x] = math.FMA(a, v, c[x])
			}
		}
		ap = ap[MR:]
		bp = bp[NR:]
	}
}
