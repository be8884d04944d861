package dd

import (
	"abmm/internal/matrix"
	"abmm/internal/parallel"
)

// Matrix is a dense row-major matrix of double-double values, used as
// the quad-precision reference for error measurement.
type Matrix struct {
	Rows, Cols int
	Data       []DD
}

// NewMatrix returns a zeroed r-by-c double-double matrix.
func NewMatrix(r, c int) *Matrix {
	return &Matrix{Rows: r, Cols: c, Data: make([]DD, r*c)}
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) DD { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v DD) { m.Data[i*m.Cols+j] = v }

// Round rounds each entry to float64, producing the reference product
// against which working-precision results are compared.
func (m *Matrix) Round() *matrix.Matrix {
	out := matrix.New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] = m.Data[i*m.Cols+j].Float()
		}
	}
	return out
}

// Mul computes the classical product a·b entirely in double-double
// arithmetic, parallelized over rows.
func MatMul(a, b *matrix.Matrix, workers int) *Matrix {
	if a.Cols != b.Rows {
		panic(matrix.ErrShape)
	}
	out := NewMatrix(a.Rows, b.Cols)
	n := b.Cols
	parallel.ForChunks(a.Rows, workers, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			crow := out.Data[i*n : (i+1)*n]
			for k, av := range arow {
				if av == 0 {
					continue
				}
				brow := b.Row(k)
				for j, bv := range brow {
					crow[j] = Add(crow[j], MulFloats(av, bv))
				}
			}
		}
	})
	return out
}

// ReferenceProduct computes the float64 rounding of the
// double-double classical product a·b: the "classical matrix
// multiplication in quadruple precision" oracle of Section VI.
func ReferenceProduct(a, b *matrix.Matrix, workers int) *matrix.Matrix {
	return MatMul(a, b, workers).Round()
}
