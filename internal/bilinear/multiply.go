package bilinear

import (
	"abmm/internal/matrix"
)

// Multiply runs the full standard-basis pipeline for a spec whose
// operators act directly on matrix blocks: stack the operands, padded
// so that `levels` recursion steps divide evenly, execute the
// recursion, and unstack the product without its padding. It panics if
// the spec is decomposed (those require basis transformations; see
// internal/core).
func Multiply(s *Spec, a, b *matrix.Matrix, levels int, opt Options) *matrix.Matrix {
	if !s.IsStandard() {
		panic("bilinear: Multiply requires a standard-basis spec")
	}
	return multiplyWith(NewEngine(s, opt, levels), a, b)
}

// multiplyWith is Multiply on a constructed engine, whose top-level
// spec fixes the padding and the layout.
func multiplyWith(e *Engine, a, b *matrix.Matrix) *matrix.Matrix {
	if a.Cols != b.Rows {
		panic(matrix.ErrShape)
	}
	s, levels, w := e.s, e.levels, e.workers
	as := ToRecursive(a, s.M0, s.K0, levels, w)
	bs := ToRecursive(b, s.K0, s.N0, levels, w)
	c := matrix.New(a.Rows, b.Cols)
	FromRecursive(e.exec(as, bs), c, s.M0, s.N0, levels, w)
	return c
}
