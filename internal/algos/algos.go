// Package algos is the algorithm catalog: concrete fast matrix
// multiplication algorithms (Strassen, Winograd, Laderman, the paper's
// new ⟨2,2,2;7⟩ alternative basis algorithm, ...) together with the
// constructors the paper's theory is built from — classical algorithms
// of any base dimensions, Kronecker (tensor) composition, the isotropy
// orbit action of Claim II.3, alternative basis derivation U = φ·U_φ of
// Definition II.2, and the higher-dimension/full decompositions of the
// Beniamini–Schwartz framework.
//
// Every constructor produces exact rational coefficient data, and every
// algorithm can be machine-verified against the Brent triple-product
// condition through Validate; tests verify the whole catalog.
package algos

import (
	"fmt"

	"abmm/internal/basis"
	"abmm/internal/bilinear"
	"abmm/internal/exact"
)

// Algorithm is a (possibly alternative basis) recursive matrix
// multiplication algorithm: a bilinear phase plus optional basis
// transformations φ, ψ, ν (Definition II.2). For standard-basis
// algorithms the transformations are nil.
type Algorithm struct {
	Name string
	// Spec is the bilinear phase ⟨U_φ, V_ψ, W_ν⟩ (equal to ⟨U,V,W⟩ for
	// standard-basis algorithms).
	Spec *bilinear.Spec
	// Phi maps the M₀K₀ blocks of A into the D_U-dimensional basis;
	// Psi and Nu likewise for B (D_V) and C (D_W). Algorithm 1 applies
	// Phi and Psi to the inputs and Nuᵀ to the output.
	Phi, Psi, Nu *basis.Transform
}

// IsAltBasis reports whether the algorithm uses non-identity basis
// transformations.
func (a *Algorithm) IsAltBasis() bool {
	return a.Phi != nil || a.Psi != nil || a.Nu != nil
}

// StandardUVW returns the standard-basis representation
// ⟨φ·U_φ, ψ·V_ψ, ν·W_ν⟩ of the algorithm (Definition III.2), which
// determines its stability vector and is the object the Brent
// verification applies to.
func (a *Algorithm) StandardUVW() (u, v, w *exact.Matrix) {
	u, v, w = a.Spec.U, a.Spec.V, a.Spec.W
	if a.Phi != nil {
		u = exact.Mul(a.Phi.M, u)
	}
	if a.Psi != nil {
		v = exact.Mul(a.Psi.M, v)
	}
	if a.Nu != nil {
		w = exact.Mul(a.Nu.M, w)
	}
	return u, v, w
}

// Validate proves the algorithm correct: transformation shapes must
// match the bilinear operators and the standard-basis representation
// must satisfy the Brent triple-product condition.
func (a *Algorithm) Validate() error {
	s := a.Spec
	if a.Phi != nil && (a.Phi.D1 != s.M0*s.K0 || a.Phi.D2 != s.DU()) {
		return fmt.Errorf("algos: %s: φ is %dx%d, want %dx%d", a.Name, a.Phi.D1, a.Phi.D2, s.M0*s.K0, s.DU())
	}
	if a.Phi == nil && s.DU() != s.M0*s.K0 {
		return fmt.Errorf("algos: %s: decomposed U (D_U=%d) without φ", a.Name, s.DU())
	}
	if a.Psi != nil && (a.Psi.D1 != s.K0*s.N0 || a.Psi.D2 != s.DV()) {
		return fmt.Errorf("algos: %s: ψ is %dx%d, want %dx%d", a.Name, a.Psi.D1, a.Psi.D2, s.K0*s.N0, s.DV())
	}
	if a.Psi == nil && s.DV() != s.K0*s.N0 {
		return fmt.Errorf("algos: %s: decomposed V (D_V=%d) without ψ", a.Name, s.DV())
	}
	if a.Nu != nil && (a.Nu.D1 != s.M0*s.N0 || a.Nu.D2 != s.DW()) {
		return fmt.Errorf("algos: %s: ν is %dx%d, want %dx%d", a.Name, a.Nu.D1, a.Nu.D2, s.M0*s.N0, s.DW())
	}
	if a.Nu == nil && s.DW() != s.M0*s.N0 {
		return fmt.Errorf("algos: %s: decomposed W (D_W=%d) without ν", a.Name, s.DW())
	}
	u, v, w := a.StandardUVW()
	if err := exact.VerifyBilinear(s.M0, s.K0, s.N0, u, v, w); err != nil {
		return fmt.Errorf("algos: %s: %w", a.Name, err)
	}
	return nil
}

// standard wraps a verified-shape standard-basis spec as an Algorithm.
func standard(name string, m0, k0, n0 int, u, v, w *exact.Matrix) *Algorithm {
	return &Algorithm{Name: name, Spec: bilinear.MustSpec(name, m0, k0, n0, u, v, w)}
}
