package matrix

import "math"

// MaxNorm returns the max-norm ‖m‖ = max |m_ij|, the norm used by the
// paper's error bounds (Theorem I.1).
func (m *Matrix) MaxNorm() float64 {
	max := 0.0
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			if a := math.Abs(v); a > max {
				max = a
			}
		}
	}
	return max
}

// MaxAbsDiff returns max |a_ij - b_ij|, the absolute forward error
// measure used in Figures 2(C), 2(D) and 3.
func MaxAbsDiff(a, b *Matrix) float64 {
	if !SameShape(a, b) {
		panic(ErrShape)
	}
	max := 0.0
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if d := math.Abs(ra[j] - rb[j]); d > max {
				max = d
			}
		}
	}
	return max
}

// MaxRelDiff returns max |a_ij - b_ij| / |b_ij| over entries where
// b_ij != 0, the component-wise relative error measure used in the
// scaling experiments (Figure 4). Entries with b_ij == 0 contribute
// |a_ij| treated against 1 only if a_ij != 0; exact zeros match exactly.
func MaxRelDiff(a, b *Matrix) float64 {
	if !SameShape(a, b) {
		panic(ErrShape)
	}
	max := 0.0
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			d := math.Abs(ra[j] - rb[j])
			if d == 0 {
				continue
			}
			if rb[j] != 0 {
				d /= math.Abs(rb[j])
			}
			if d > max {
				max = d
			}
		}
	}
	return max
}

// AbsRowMax returns the vector of per-row maxima max_j |m_ij|, used by
// outside scaling (D_A = diag(max_j |a_ij|)).
func (m *Matrix) AbsRowMax() []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		max := 0.0
		for _, v := range m.Row(i) {
			if a := math.Abs(v); a > max {
				max = a
			}
		}
		out[i] = max
	}
	return out
}

// AbsColMax returns the vector of per-column maxima max_i |m_ij|, used
// by outside scaling of B and by inside scaling.
func (m *Matrix) AbsColMax() []float64 {
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			if a := math.Abs(v); a > out[j] {
				out[j] = a
			}
		}
	}
	return out
}
