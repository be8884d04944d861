package bilinear

import "abmm/internal/matrix"

// MultiplyUnfused is Multiply with the last recursion level run as an
// ordinary scheduled step — materialized S_r and T_r, kernel.Mul
// products, and the decode program — instead of the fused step: the
// reference fused_test.go checks the fused step's rounding statements
// against.
func MultiplyUnfused(s *Spec, a, b *matrix.Matrix, levels int, opt Options) *matrix.Matrix {
	e := NewEngine(s, opt, levels)
	e.unfused = true
	return multiplyWith(e, a, b)
}
