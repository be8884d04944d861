package stability

import (
	"math"

	"abmm/internal/algos"
	"abmm/internal/basis"
)

// Cost is an exact arithmetic-operation count for one multiplication.
type Cost struct {
	// Mults counts scalar multiplications of the base-case classical
	// products.
	Mults int64
	// BilinearAdds counts scalar additions of the encode/decode phases
	// at the paper's CSE-scheduled counts (Spec.ScheduledAdditions),
	// not at what the engine executes, which forms every block straight
	// from its coefficient row and so adds more for an algorithm whose
	// programs share partial sums (Winograd's, Laderman's).
	BilinearAdds int64
	// BaseAdds counts scalar additions inside the classical base cases.
	BaseAdds int64
	// TransformAdds counts scalar additions of the basis
	// transformations φ, ψ, νᵀ.
	TransformAdds int64
}

// Total returns all scalar operations.
func (c Cost) Total() int64 { return c.Mults + c.BilinearAdds + c.BaseAdds + c.TransformAdds }

// ArithmeticCost computes the exact scalar operation counts of running
// the algorithm on an M×K by K×N multiplication with L recursion steps
// (dimensions must be divisible by the respective base powers; callers
// normally pass padded sizes). The counts are the paper's model of
// Algorithm 1: CSE-scheduled linear phases (see Cost.BilinearAdds),
// classical base case, and the recursive basis transformations.
func ArithmeticCost(alg *algos.Algorithm, m, k, n, l int) Cost {
	s := alg.Spec
	encA, encB, dec := s.ScheduledAdditions()
	var c Cost
	// Linear phases: at depth j (0 = top) there are R^j nodes; each
	// performs the scheduled additions on blocks one level smaller.
	nodes := int64(1)
	mi, ki, ni := int64(m), int64(k), int64(n)
	for j := 0; j < l; j++ {
		am := mi / int64(s.M0) * (ki / int64(s.K0)) // encode-A block elements
		bm := ki / int64(s.K0) * (ni / int64(s.N0)) // encode-B block elements
		cm := mi / int64(s.M0) * (ni / int64(s.N0)) // decode block elements
		c.BilinearAdds += nodes * (int64(encA)*am + int64(encB)*bm + int64(dec)*cm)
		nodes *= int64(s.R)
		mi, ki, ni = mi/int64(s.M0), ki/int64(s.K0), ni/int64(s.N0)
	}
	// Base cases: nodes = R^L classical multiplies of mi×ki by ki×ni.
	c.Mults = nodes * mi * ki * ni
	c.BaseAdds = nodes * mi * (ki - 1) * ni
	// Basis transformations.
	if alg.Phi != nil {
		c.TransformAdds += transformCost(alg.Phi, int64(m)*int64(k)/int64(s.M0*s.K0), l)
	}
	if alg.Psi != nil {
		c.TransformAdds += transformCost(alg.Psi, int64(k)*int64(n)/int64(s.K0*s.N0), l)
	}
	if alg.Nu != nil {
		// νᵀ maps D_W dims back to M₀N₀; its per-step additions are
		// those of the transposed matrix.
		c.TransformAdds += transformCost(alg.Nu.Transposed(), int64(m)*int64(n)/int64(s.M0*s.N0), l)
	}
	return c
}

// transformCost counts scalar additions of a recursive transform
// applied for l levels where one top-level input group holds `group`
// elements (i.e. the full operand has D1·group elements).
func transformCost(t *basis.Transform, group int64, l int) int64 {
	if l == 0 {
		return 0
	}
	// At depth j there are D1^j sub-transform nodes; each combines D1
	// transformed groups into D2 outputs. Each output sub-vector holds
	// D2^{l-j-1}·(base block elements); base block elements =
	// group / D1^{l-1}.
	baseElems := group
	for j := 0; j < l-1; j++ {
		baseElems /= int64(t.D1)
	}
	adds := int64(t.Additions())
	total := int64(0)
	nodes := int64(1)
	for j := 0; j < l; j++ {
		subOut := baseElems
		for i := 0; i < l-j-1; i++ {
			subOut *= int64(t.D2)
		}
		total += nodes * adds * subOut
		nodes *= int64(t.D1)
	}
	return total
}

// LeadingCoefficient returns the closed-form leading coefficient of the
// arithmetic cost for a square-base algorithm with full recursion,
// 1 + A/(R − n₀²) where A is the scheduled additions per step: the
// constant in front of n^{log_{n₀}R}. Strassen: 1+18/3 = 7; Winograd:
// 1+15/3 = 6; the alternative basis bilinear phases: 1+12/3 = 5.
func LeadingCoefficient(alg *algos.Algorithm) float64 {
	s := alg.Spec
	if s.M0 != s.K0 || s.K0 != s.N0 {
		return LeadingCoefficientNumeric(alg)
	}
	a := float64(s.TotalScheduledAdditions())
	return 1 + a/float64(s.R-s.N0*s.N0)
}

// LeadingCoefficientNumeric estimates the leading coefficient
// empirically: it evaluates the exact cost at a large size with full
// recursion to the 1×1 base case and divides by n^ω, extrapolating the
// lower-order terms away with a second evaluation (Richardson-style).
func LeadingCoefficientNumeric(alg *algos.Algorithm) float64 {
	s := alg.Spec
	omega := 3 * math.Log(float64(s.R)) / math.Log(float64(s.M0*s.K0*s.N0))
	coeff := func(l int) float64 {
		m, k, n := ipow(s.M0, l), ipow(s.K0, l), ipow(s.N0, l)
		cost := ArithmeticCost(alg, m, k, n, l)
		nEff := math.Pow(float64(m)*float64(k)*float64(n), 1.0/3)
		return float64(cost.Total()) / math.Pow(nEff, omega)
	}
	// The sequence converges geometrically; accelerate with one
	// Aitken step. Levels stay modest so the exact int64 counts cannot
	// overflow even for large R.
	c1, c2, c3 := coeff(6), coeff(7), coeff(8)
	d1, d2 := c2-c1, c3-c2
	denom := d2 - d1
	if denom == 0 {
		return c3
	}
	return c3 - d2*d2/denom
}

func ipow(b, e int) int {
	v := 1
	for ; e > 0; e-- {
		v *= b
	}
	return v
}
