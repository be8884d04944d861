package bilinear

import (
	"abmm/internal/matrix"
	"abmm/internal/pool"
)

// Multiply is the standard-basis pipeline the engine tests run: stack
// the operands, padded so that `levels` recursion steps divide evenly,
// execute the recursion, and unstack the product without its padding.
// It panics on a decomposed spec, whose stacked product is in the
// alternative basis (core.Plan applies the transformations).
func Multiply(s *Spec, a, b *matrix.Matrix, levels int, opt Options) *matrix.Matrix {
	return multiply(NewEngine(s, opt, levels), a, b)
}

// MultiplyUnfused is Multiply with the last recursion level run as an
// ordinary scheduled step — materialized S_r and T_r, kernel.Mul
// products, and the decode program — instead of the fused step: the
// reference fused_test.go checks the fused step's rounding statements
// against.
func MultiplyUnfused(s *Spec, a, b *matrix.Matrix, levels int, opt Options) *matrix.Matrix {
	e := NewEngine(s, opt, levels)
	e.unfused = true
	return multiply(e, a, b)
}

func multiply(e *Engine, a, b *matrix.Matrix) *matrix.Matrix {
	s, levels, w := e.s, e.levels, e.workers
	if !s.IsStandard() {
		panic("bilinear: Multiply requires a standard-basis spec")
	}
	if a.Cols != b.Rows {
		panic(matrix.ErrShape)
	}
	as := ToRecursive(a, s.M0, s.K0, levels, w)
	bs := ToRecursive(b, s.K0, s.N0, levels, w)
	cs := matrix.New(ipow(s.DW(), levels)*(as.Rows/ipow(s.DU(), levels)), bs.Cols)
	e.ExecIntoCancel(cs, as, bs, pool.NewArena(), nil, nil)
	c := matrix.New(a.Rows, b.Cols)
	FromRecursive(cs, c, s.M0, s.N0, levels, w)
	return c
}
