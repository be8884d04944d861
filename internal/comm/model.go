// Package comm implements the communication-cost analysis of the
// paper's Appendix A: analytic IO-cost formulas for ⟨2,2,2;7⟩-class
// algorithms in the two-level memory model (Definition A.1), and their
// memory footprints. The model describes the schedules the paper
// analyzes, not this library's engine: Table III
// (internal/experiments) sets the engine's measured arena scratch
// beside the model's footprints.
package comm

import (
	"math"

	"abmm/internal/algos"
)

// Model evaluates analytic communication costs for a square-base
// recursive algorithm in the shared-memory two-level model: a cache of
// M words against an unbounded main memory.
type Model struct {
	Name string
	// R and N0 describe the base case ⟨N0,N0,N0;R⟩.
	R, N0 int
	// BilinearAdds is the scheduled additions per recursion step.
	BilinearAdds int
	// FootprintCoef c gives the memory footprint c·n².
	FootprintCoef float64
	// TransformIOCoef is the coefficient t of the basis-transformation
	// traffic t·n²·log₂(n/√M); zero for standard-basis algorithms.
	TransformIOCoef float64
}

// NewModel derives a Model from an algorithm. The footprint coefficient
// is the published one for the schedule the paper assumes: 3n² (the two
// operands and the output) for a low-memory direct schedule,
// (2⅔+o(1))n² for alternative basis algorithms transformed in place,
// and 8⅔n² for Strassen's naive schedule. They describe those
// schedules, not this library's engine, which holds 7.09n² of arena
// scratch on top of the caller's operands for ours at n=256, L=3
// (Table III's engine column).
func NewModel(alg *algos.Algorithm) Model {
	s := alg.Spec
	m := Model{
		Name:          alg.Name,
		R:             s.R,
		N0:            s.N0,
		BilinearAdds:  s.TotalScheduledAdditions(),
		FootprintCoef: 3,
	}
	if alg.IsAltBasis() {
		m.FootprintCoef = 8.0/3 + 0.01
		t := 0.0
		n0sq := float64(s.M0 * s.K0)
		if alg.Phi != nil {
			t += float64(alg.Phi.D1+alg.Phi.D2) / n0sq
		}
		if alg.Psi != nil {
			t += float64(alg.Psi.D1+alg.Psi.D2) / n0sq
		}
		if alg.Nu != nil {
			t += float64(alg.Nu.D1+alg.Nu.D2) / n0sq
		}
		m.TransformIOCoef = t
	} else if s.R == 7 && s.TotalScheduledAdditions() == 18 {
		// Strassen with the naive schedule: operands, output, and the
		// recursion's S/T/P buffers live simultaneously.
		m.FootprintCoef = 8.0/3 + 6
	}
	return m
}

// Omega returns the recursion exponent log_{N0} R.
func (m Model) Omega() float64 {
	return math.Log(float64(m.R)) / math.Log(float64(m.N0))
}

// Footprint returns the memory footprint in words for an n×n problem.
func (m Model) Footprint(n float64) float64 { return m.FootprintCoef * n * n }

// LeadingIOCoef returns the constant in front of (n/√M)^{log₂7}·M:
// 3·c^{ω/2−1}·(1 + S/(R−N0²)), the form that reproduces the Table III
// constants (Strassen 50.21, Winograd 28.05, Karstadt–Schwartz 23.37).
func (m Model) LeadingIOCoef() float64 {
	omega := m.Omega()
	base := float64(m.R - m.N0*m.N0)
	return 3 * math.Pow(m.FootprintCoef, omega/2-1) * (1 + float64(m.BilinearAdds)/base)
}

// IOCost returns the analytic data movement in words for an n×n
// multiplication with cache size M words: the bilinear-phase leading
// term, the quadratic correction, and the basis-transformation
// n²·log₂(n/√M) traffic.
func (m Model) IOCost(n, M float64) float64 {
	omega := m.Omega()
	lead := m.LeadingIOCoef() * math.Pow(n/math.Sqrt(M), omega) * M
	quad := 3 * float64(m.BilinearAdds) / float64(m.R-m.N0*m.N0) * n * n
	io := lead - quad
	if m.TransformIOCoef > 0 && n > math.Sqrt(M) {
		io += m.TransformIOCoef * n * n * (math.Log2(n/math.Sqrt(M)) + 1)
	}
	return io
}
