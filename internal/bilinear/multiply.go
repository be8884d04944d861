package bilinear

import (
	"abmm/internal/matrix"
)

// Multiply runs the full standard-basis pipeline for a spec whose
// operators act directly on matrix blocks: pad the operands so that
// `levels` recursion steps divide evenly, convert to stacked layout,
// execute the recursion, and convert back, cropping the padding. It
// panics if the spec is decomposed (those require basis
// transformations; see internal/core).
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
	pm, pk, pn := matrix.PadShape(a.Rows, a.Cols, b.Cols, s.M0, s.K0, s.N0, levels)
	as := ToRecursive(a.PadTo(pm, pk), s.M0, s.K0, levels, w)
	bs := ToRecursive(b.PadTo(pk, pn), s.K0, s.N0, levels, w)
	cs := e.exec(as, bs)
	cp := matrix.New(pm, pn)
	FromRecursive(cs, cp, s.M0, s.N0, levels, w)
	return cp.CropTo(a.Rows, b.Cols)
}
