package bilinear

import (
	"fmt"

	"abmm/internal/matrix"
)

// MultiplyMixed runs a non-stationary ("non-uniform") recursion in the
// sense of Castrapel–Gustafson and D'Alberto: a different algorithm at
// each recursion level. specs[0] is applied at the top level, specs[1]
// one level down, and so on, recursing len(specs) levels before the
// classical base case. All specs must be standard-basis algorithms with
// identical base dimensions so the block partition stays consistent.
// Padding and layout conversion are as in Multiply.
//
// Mixing schedules this way trades stability against additions level by
// level; the paper's Section V notes the technique does not readily
// extend to alternative basis algorithms, which is why this entry point
// accepts only standard-basis specs.
func MultiplyMixed(specs []*Spec, a, b *matrix.Matrix, opt Options) *matrix.Matrix {
	if len(specs) == 0 {
		panic("bilinear: MultiplyMixed needs at least one spec")
	}
	first := specs[0]
	for _, s := range specs[1:] {
		if !s.IsStandard() || !first.IsStandard() {
			panic("bilinear: MultiplyMixed requires standard-basis specs")
		}
		if s.M0 != first.M0 || s.K0 != first.K0 || s.N0 != first.N0 {
			panic(fmt.Sprintf("bilinear: mixed specs disagree on base dims: ⟨%d,%d,%d⟩ vs ⟨%d,%d,%d⟩",
				first.M0, first.K0, first.N0, s.M0, s.K0, s.N0))
		}
	}
	e := NewEngine(first, opt, len(specs))
	e.mixed = specs
	for _, s := range specs[1:] {
		s.Programs() // compile once before any parallel execution
	}
	return multiplyWith(e, a, b)
}
