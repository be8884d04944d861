// Package bilinear implements recursive bilinear ⟨M₀,K₀,N₀;R⟩ matrix
// multiplication (Equation (2) of the paper): encoding the operands
// into R linear combinations S_r, T_r, recursively multiplying
// M_r = S_r·T_r, and decoding C_k = Σ_r w_kr M_r, with L recursion
// levels and the classical algorithm at the base.
//
// The engine operates on a block-recursive ("stacked") data layout in
// which an operand is a vector of equally-shaped base blocks stacked
// one after another; one recursion level groups the vector into D
// sub-vectors occupying contiguous row ranges. This uniformly supports standard
// algorithms (D = M₀K₀) and the decomposed recursive-bilinear framework
// of Beniamini–Schwartz, where the bilinear operators act on spaces of
// dimension D_U, D_V, D_W larger than the matrix block counts.
package bilinear

import (
	"fmt"
	"sync"

	"abmm/internal/exact"
	"abmm/internal/matrix"
	"abmm/internal/schedule"
)

// Spec is a recursive bilinear algorithm: the dimensions of its base
// case and its encoding/decoding matrices. For a standard-basis
// algorithm U is M₀K₀×R, V is K₀N₀×R and W is M₀N₀×R; for the bilinear
// phase of an alternative basis algorithm the row counts are the
// decomposition dimensions D_U, D_V, D_W instead (Definition II.2).
type Spec struct {
	Name          string
	M0, K0, N0, R int
	// U, V, W are the exact encoding/decoding matrices. Rows of U
	// index the (vectorized, row-major) blocks of A or the dimensions
	// of the alternative basis; columns index the R products.
	U, V, W *exact.Matrix

	// Float mirrors used by the execution engine, derived from the
	// exact matrices by NewSpec. uT and vT are Uᵀ and Vᵀ, so that the
	// coefficients of S_r and T_r are row r of each.
	uF, vF, wF *matrix.Matrix
	uT, vT     *matrix.Matrix

	progOnce           sync.Once
	encAProg, encBProg *schedule.Program
	decProg            *schedule.Program
}

// Programs returns the CSE-compiled linear-phase programs: the
// encodings of A and B (targets = the R products' operands) and the
// decoding (targets = the D_W output blocks over the products). They
// give the paper's addition counts (Tables I–II and the arithmetic
// leading coefficient); the engine does not run them, but combines
// each block straight from the coefficient rows. Compilation happens
// once per Spec and is cached.
func (s *Spec) Programs() (encA, encB, dec *schedule.Program) {
	s.progOnce.Do(func() {
		s.encAProg = schedule.Compile(s.U)
		s.encBProg = schedule.Compile(s.V)
		s.decProg = schedule.Compile(s.W.Transpose())
	})
	return s.encAProg, s.encBProg, s.decProg
}

// ScheduledAdditions returns the per-step block addition counts of the
// CSE-compiled linear phases: the paper's counts, which determine the
// arithmetic-cost leading coefficient (e.g. 4+4+7 = 15 for Winograd's
// variant, 12 for the alternative basis bilinear phases). The engine
// performs Additions' raw counts instead, which are equal wherever the
// programs share no partial sum.
func (s *Spec) ScheduledAdditions() (encA, encB, dec int) {
	a, b, d := s.Programs()
	return a.Additions(), b.Additions(), d.Additions()
}

// TotalScheduledAdditions returns the total scheduled block additions
// per recursion step.
func (s *Spec) TotalScheduledAdditions() int {
	a, b, d := s.ScheduledAdditions()
	return a + b + d
}

// NewSpec builds a Spec and its float mirrors. It validates shape
// consistency but not correctness; use Validate for the Brent check.
func NewSpec(name string, m0, k0, n0 int, u, v, w *exact.Matrix) (*Spec, error) {
	if m0 < 1 || k0 < 1 || n0 < 1 {
		return nil, fmt.Errorf("bilinear: invalid base dims ⟨%d,%d,%d⟩", m0, k0, n0)
	}
	r := u.Cols
	if v.Cols != r || w.Cols != r {
		return nil, fmt.Errorf("bilinear: inconsistent product counts %d/%d/%d", u.Cols, v.Cols, w.Cols)
	}
	if u.Rows < m0*k0 || v.Rows < k0*n0 || w.Rows < m0*n0 {
		return nil, fmt.Errorf("bilinear: operator row counts %d/%d/%d below block counts %d/%d/%d",
			u.Rows, v.Rows, w.Rows, m0*k0, k0*n0, m0*n0)
	}
	s := &Spec{Name: name, M0: m0, K0: k0, N0: n0, R: r, U: u, V: v, W: w}
	s.uF = matrix.FromSlice(u.Rows, u.Cols, u.Float64s())
	s.vF = matrix.FromSlice(v.Rows, v.Cols, v.Float64s())
	s.wF = matrix.FromSlice(w.Rows, w.Cols, w.Float64s())
	s.uT = matrix.FromSlice(u.Cols, u.Rows, u.Transpose().Float64s())
	s.vT = matrix.FromSlice(v.Cols, v.Rows, v.Transpose().Float64s())
	return s, nil
}

// MustSpec is NewSpec for statically-known-good inputs.
func MustSpec(name string, m0, k0, n0 int, u, v, w *exact.Matrix) *Spec {
	s, err := NewSpec(name, m0, k0, n0, u, v, w)
	if err != nil {
		panic(err)
	}
	return s
}

// DU, DV, DW return the dimensions of the spaces the bilinear operators
// act on (equal to M₀K₀ etc. for standard-basis algorithms).
func (s *Spec) DU() int { return s.U.Rows }
func (s *Spec) DV() int { return s.V.Rows }
func (s *Spec) DW() int { return s.W.Rows }

// CoeffU, CoeffV and CoeffW expose the float64 mirrors of the exact
// operators for executors outside this package (e.g. the distributed
// runtime). The returned matrices must not be modified.
func (s *Spec) CoeffU() *matrix.Matrix { return s.uF }
func (s *Spec) CoeffV() *matrix.Matrix { return s.vF }
func (s *Spec) CoeffW() *matrix.Matrix { return s.wF }

// IsStandard reports whether the operators act directly on matrix
// blocks (no dimension expansion).
func (s *Spec) IsStandard() bool {
	return s.DU() == s.M0*s.K0 && s.DV() == s.K0*s.N0 && s.DW() == s.M0*s.N0
}

// Validate checks the Brent triple-product condition. It only applies
// to standard-basis specs; bilinear phases of alternative basis
// algorithms are validated through their standard-basis representation
// (Definition III.2).
func (s *Spec) Validate() error {
	if !s.IsStandard() {
		return fmt.Errorf("bilinear: %s is decomposed; validate its standard-basis representation", s.Name)
	}
	return exact.VerifyBilinear(s.M0, s.K0, s.N0, s.U, s.V, s.W)
}

// Additions returns the number of block additions performed per
// recursion step by the three linear phases: a linear combination of t
// nonzero terms costs t-1 additions, and combinations with zero terms
// cost nothing.
func (s *Spec) Additions() (encA, encB, dec int) {
	return combAdds(s.U), combAdds(s.V), combAdds(s.W.Transpose())
}

// TotalAdditions returns the total block additions per recursion step.
func (s *Spec) TotalAdditions() int {
	a, b, c := s.Additions()
	return a + b + c
}

// combAdds counts Σ_columns max(nnz(col)-1, 0) for the encodings of U
// and V; for W the decoding combines rows of Wᵀ (one combination per
// output block), so callers pass Wᵀ.
func combAdds(m *exact.Matrix) int {
	total := 0
	for c := 0; c < m.Cols; c++ {
		nnz := 0
		for r := 0; r < m.Rows; r++ {
			if m.At(r, c).Sign() != 0 {
				nnz++
			}
		}
		if nnz > 1 {
			total += nnz - 1
		}
	}
	return total
}
