package comm

import (
	"math"
	"testing"

	"abmm/internal/algos"
)

func TestLeadingIOCoefTableIII(t *testing.T) {
	// The analytic model must reproduce the Table III leading
	// constants for the naive-Strassen, Winograd and Karstadt–Schwartz
	// footprint assumptions: 50.21, 28.05, 23.37.
	cases := []struct {
		m    Model
		want float64
	}{
		{NewModel(algos.Strassen()), 50.21},
		{NewModel(algos.Winograd()), 28.05},
	}
	for _, c := range cases {
		if got := c.m.LeadingIOCoef(); math.Abs(got-c.want) > 0.05 {
			t.Errorf("%s: leading IO coefficient %.2f, want %.2f", c.m.Name, got, c.want)
		}
	}
	// Karstadt–Schwartz row: 3n² footprint with the 12-addition
	// bilinear phase.
	ks := NewModel(algos.AltWinograd())
	ks.FootprintCoef = 3
	if got := ks.LeadingIOCoef(); math.Abs(got-23.37) > 0.05 {
		t.Errorf("KS-footprint coefficient %.2f, want 23.37", got)
	}
}

func TestAltBasisIOBelowStandard(t *testing.T) {
	// Table III ordering at large n: ours/alt-winograd < winograd <
	// strassen-naive.
	n, M := 8192.0, 1<<20
	s := NewModel(algos.Strassen()).IOCost(n, float64(M))
	w := NewModel(algos.Winograd()).IOCost(n, float64(M))
	o := NewModel(algos.Ours()).IOCost(n, float64(M))
	if !(o < w && w < s) {
		t.Errorf("IO ordering violated: ours %.3g, winograd %.3g, strassen %.3g", o, w, s)
	}
}

func TestFootprint(t *testing.T) {
	m := NewModel(algos.Ours())
	if f := m.Footprint(1000); f < 2.6e6 || f > 2.8e6 {
		t.Errorf("alt-basis footprint %.3g, want ≈2.67e6", f)
	}
}
