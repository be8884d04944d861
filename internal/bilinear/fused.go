package bilinear

// The fused leaf step. At the last recursion level every operand of
// the R products is a linear combination of the top-level operand
// groups, and every output group is a linear combination of the R
// products. A scheduled step materializes those combinations (S_r,
// T_r, and the write-once decode's sweeps) as full-matrix memory passes
// around each base-case multiply. The packed
// kernel makes all three passes free: its packing already copies each
// operand block once, so the encode coefficients ride along with the
// copy, and its write-out already touches each output tile once per kc
// slice, so the decode coefficients ride along with the store. One
// recursion level — 2R+ (number of nonzero w entries) full-matrix
// sweeps — disappears into the kernel's existing memory traffic. This
// is the fusion scheme of "Implementing Strassen's Algorithm with BLIS"
// (PAPERS.md), applied at the alternative-basis recursion's leaves.

import (
	"abmm/internal/kernel"
	"abmm/internal/matrix"
	"abmm/internal/obs"
	"abmm/internal/parallel"
	"abmm/internal/pool"
)

// maxFusedDim bounds the stack-allocated term and output tables below;
// no catalog algorithm has D_U, D_V, D_W, or R beyond it, and larger
// specs spill to the heap (cold, and only for exotic hand-built specs).
const maxFusedDim = 32

// fusedStep executes one whole recursion step (level == 1) as R fused
// packed-kernel calls: product r multiplies the term lists
// (u[i][r], A_i) × (v[i][r], B_i) and scatters w[k][r]·P_r into each
// output group C_k during the kernel's tile write-out. The first
// product to touch a group overwrites it (Accum false) and later
// products accumulate, in product order; groups no product touches are
// zeroed at the end.
//
// Rounding relative to the unfused step — the scheduled step over
// kernel.Mul leaves, which materializes S_r/T_r and the products and
// writes each output group once, summing its products in product order
// (see fused_test.go for the pinned statements): the encode
// fusion is exact — packing applies terms with matrix.LinearCombine's
// per-element operation order, so a fused pack is bitwise identical to
// materializing S_r/T_r and packing the result. On the decode side, a
// product that scatters (≥ 2 outputs, a non-unit coefficient, or a
// first-touch overwrite) reproduces the rounding of materializing it
// and then scaling or accumulating it (a rounded product, then a
// rounded sum) exactly when the base block's inner dimension fits one kc
// slice, and the fused step too sums a group's products in product
// order, so a group written only by such products matches the unfused
// step bitwise. A product whose decode is a single unit-coefficient
// accumulation instead takes the kernel's direct path, which extends
// the destination's own ascending-k chain of fused multiply-adds,
// c = fma(a, b, c) (the contract kernel's
// TestMulAddBitwiseEqualsNaiveChain pins on that path), and differs
// from materialize-then-add in low-order bits.
// Deeper inner dimensions additionally round the decode once per kc
// slice. None of this changes the error analysis — each output element
// still receives the same number of rounded partial sums.
//
//abmm:hotpath
func (e *Engine) fusedStep(c, a, b *matrix.Matrix, al *pool.Arena, done <-chan struct{}, rec obs.Recorder) {
	s := e.s
	aGroups := groupsIn(al, a, s.DU())
	bGroups := groupsIn(al, b, s.DV())
	cGroups := groupsIn(al, c, s.DW())

	// Term/output tables and touched flags live on the stack for every
	// catalog algorithm (filled by counted writes, never append, so the
	// backing arrays provably cannot grow); the cold spill keeps exotic
	// specs correct.
	var touchedBuf [maxFusedDim]bool
	var atBuf, btBuf [maxFusedDim]kernel.Term
	var outBuf [maxFusedDim]kernel.Out
	touched, at, bt, outs := touchedBuf[:], atBuf[:], btBuf[:], outBuf[:]
	if s.DW() > len(touchedBuf) {
		// Cold spill: no catalog algorithm exceeds the stack tables.
		//abmm:allow hotpath-alloc
		touched = make([]bool, s.DW())
		// Same cold spill for the write-out table.
		//abmm:allow hotpath-alloc
		outs = make([]kernel.Out, s.DW())
	}
	touched = touched[:s.DW()]
	if s.DU() > len(atBuf) {
		// Cold spill for the A-side term table.
		//abmm:allow hotpath-alloc
		at = make([]kernel.Term, s.DU())
	}
	if s.DV() > len(btBuf) {
		// Cold spill for the B-side term table.
		//abmm:allow hotpath-alloc
		bt = make([]kernel.Term, s.DV())
	}

	for r := 0; r < s.R; r++ {
		if parallel.Canceled(done) {
			break
		}
		na := 0
		for i, g := range aGroups {
			if u := s.uF.At(i, r); u != 0 {
				at[na] = kernel.Term{Coeff: u, M: g}
				na++
			}
		}
		nb := 0
		for i, g := range bGroups {
			if v := s.vF.At(i, r); v != 0 {
				bt[nb] = kernel.Term{Coeff: v, M: g}
				nb++
			}
		}
		no := 0
		for k := 0; k < s.DW(); k++ {
			w := s.wF.At(k, r)
			if w == 0 {
				continue
			}
			outs[no] = kernel.Out{Coeff: w, M: cGroups[k], Accum: touched[k]}
			no++
			touched[k] = true
		}
		kernel.GEMM(outs[:no], at[:na], bt[:nb], kernel.DefaultBlocking(), e.workers, al, rec)
	}
	for k, t := range touched {
		if !t {
			cGroups[k].Zero()
		}
	}
	putGroups(al, aGroups)
	putGroups(al, bGroups)
	putGroups(al, cGroups)
}
