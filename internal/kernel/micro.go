package kernel

// The register micro-kernel. MR×NR is the register-tile shape: one call
// accumulates an MR×NR tile of the product over a kc-deep slice of the
// inner dimension, reading the operands from packed micro-panels so
// every load is unit-stride and every accumulator lives in a register
// for the whole k loop.
//
// 16×8 is sized to AVX-512. Register budget: one 8-lane ZMM register
// holds one output row, so the tile is sixteen accumulators, and with
// the B row and up to fifteen product temporaries it fills the 32 ZMM
// registers. Without AVX-512 the same tile runs as four 4×8 sub-tiles,
// each eight YMM accumulators (two per row) plus the two B halves and
// six temporaries in the 16 YMM registers.
//
// Why so many accumulators: the kernel issues a separate multiply and
// add per accumulator (not FMA) on two shared vector ports, so one k
// step takes about one cycle per accumulator, and an add cannot start
// until the previous add to the same accumulator has finished (4 cycles
// on current x86 cores). With four accumulators (a 4×4 YMM tile) a k
// step is exactly that latency and any stall idles the ports; with
// sixteen every chain has four times the slack. Both tile extents
// divide 64, so the power-of-two base blocks the recursion produces
// never have ragged micro-panels.
const (
	// MR is the number of A rows (product rows) per register tile.
	MR = 16
	// NR is the number of B columns (product columns) per register tile.
	NR = 8
)

// isa names one routine that computes the packed MR×NR tile. All of
// them apply each product to its accumulator as a separate multiply
// then add, one k at a time in ascending order, so they agree to the
// bit and differ only in speed.
type isa uint8

const (
	// isaGo is the portable Go loop (microGo).
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
// bitwise equality with MulNaive. FMA is deliberately not used: it
// rounds once where the scalar c += a*b rounds twice.
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
// named locals measured no faster (~1.8 GFLOP/s at 256³ on a 2.1 GHz
// Xeon either way).
//
//abmm:hotpath
func microGo(ap, bp []float64, acc *[MR * NR]float64) {
	for len(ap) >= MR && len(bp) >= NR {
		b := (*[NR]float64)(bp)
		for r, a := range (*[MR]float64)(ap) {
			c := (*[NR]float64)(acc[r*NR:])
			for x, v := range b {
				c[x] += a * v
			}
		}
		ap = ap[MR:]
		bp = bp[NR:]
	}
}
