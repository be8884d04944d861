// Package matrix implements the dense float64 matrix substrate used by
// the alternative basis matrix multiplication library: zero-copy strided
// views, fused linear-combination kernels, norms, padding, random fills
// for the paper's experiment distributions, and the triple-loop test
// oracle MulNaive. The classical product (the recursion base case and
// the DGEMM stand-in for runtime normalization) is the packed kernel in
// internal/kernel.
package matrix

import (
	"errors"
	"fmt"
)

// Matrix is a dense, row-major matrix of float64 values. A Matrix may be
// a view into a larger matrix, in which case Stride exceeds Cols and the
// rows are not contiguous. The zero value is an empty matrix.
type Matrix struct {
	Rows, Cols int
	// Stride is the distance in elements between the starts of
	// consecutive rows in Data. Stride >= Cols for non-empty matrices.
	Stride int
	Data   []float64
}

// ErrShape reports an operation on matrices whose dimensions do not
// conform.
var ErrShape = errors.New("matrix: dimension mismatch")

// New returns a zeroed r-by-c matrix with contiguous storage.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic("matrix: negative dimension")
	}
	return &Matrix{Rows: r, Cols: c, Stride: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from row slices, which must all have equal
// length. The data is copied.
func FromRows(rows [][]float64) *Matrix {
	r := len(rows)
	if r == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("matrix: ragged rows")
		}
		copy(m.Row(i), row)
	}
	return m
}

// FromSlice wraps data as an r-by-c matrix without copying. len(data)
// must be exactly r*c.
func FromSlice(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("matrix: FromSlice needs %d elements, got %d", r*c, len(data)))
	}
	return &Matrix{Rows: r, Cols: c, Stride: c, Data: data}
}

// Init re-points m at data as an r-by-c contiguous matrix, the
// in-place counterpart of FromSlice for recycled headers. len(data)
// must be exactly r*c.
func (m *Matrix) Init(r, c int, data []float64) {
	if len(data) != r*c {
		panic(fmt.Sprintf("matrix: Init needs %d elements, got %d", r*c, len(data)))
	}
	m.Rows, m.Cols, m.Stride, m.Data = r, c, c, data
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Stride+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Stride+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 {
	return m.Data[i*m.Stride : i*m.Stride+m.Cols]
}

// View returns an r-by-c submatrix whose top-left corner is at (i, j).
// The view aliases m's storage; writes through the view are visible in m.
func (m *Matrix) View(i, j, r, c int) *Matrix {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > m.Rows || j+c > m.Cols {
		panic(fmt.Sprintf("matrix: view (%d,%d,%d,%d) out of bounds of %dx%d", i, j, r, c, m.Rows, m.Cols))
	}
	if r == 0 || c == 0 {
		return &Matrix{Rows: r, Cols: c, Stride: m.Stride}
	}
	off := i*m.Stride + j
	end := (i+r-1)*m.Stride + j + c
	return &Matrix{Rows: r, Cols: c, Stride: m.Stride, Data: m.Data[off:end]}
}

// ViewInto writes the (i, j, r, c) view of m into the header dst
// without allocating. It is View for recycled headers.
func (m *Matrix) ViewInto(dst *Matrix, i, j, r, c int) {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > m.Rows || j+c > m.Cols {
		panic(fmt.Sprintf("matrix: view (%d,%d,%d,%d) out of bounds of %dx%d", i, j, r, c, m.Rows, m.Cols))
	}
	if r == 0 || c == 0 {
		*dst = Matrix{Rows: r, Cols: c, Stride: m.Stride}
		return
	}
	off := i*m.Stride + j
	end := (i+r-1)*m.Stride + j + c
	dst.Rows, dst.Cols, dst.Stride, dst.Data = r, c, m.Stride, m.Data[off:end]
}

// Clone returns a deep copy of m with contiguous storage.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	CopyInto(out, m)
	return out
}

// IsContiguous reports whether the rows of m are adjacent in memory.
func (m *Matrix) IsContiguous() bool { return m.Stride == m.Cols || m.Rows <= 1 }

// SameShape reports whether a and b have identical dimensions.
func SameShape(a, b *Matrix) bool { return a.Rows == b.Rows && a.Cols == b.Cols }

// CopyInto copies src into dst, which must have the same shape.
func CopyInto(dst, src *Matrix) {
	if !SameShape(dst, src) {
		panic(ErrShape)
	}
	if dst.IsContiguous() && src.IsContiguous() {
		copy(dst.Data, src.Data[:src.Rows*src.Cols])
		return
	}
	for i := 0; i < src.Rows; i++ {
		copy(dst.Row(i), src.Row(i))
	}
}

// Zero sets every element of m to zero.
func (m *Matrix) Zero() {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
}

// Fill sets every element of m to v.
func (m *Matrix) Fill(v float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = v
		}
	}
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Transpose returns a new matrix holding mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*out.Stride+i] = v
		}
	}
	return out
}

// Equal reports exact element-wise equality of a and b. Bitwise
// comparison is this function's contract, not an accident: callers use
// it to assert that refactors preserve results to the last ulp.
//
//abmm:allow float-discipline
func Equal(a, b *Matrix) bool {
	if !SameShape(a, b) {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if ra[j] != rb[j] {
				return false
			}
		}
	}
	return true
}

// String renders small matrices for debugging; large matrices are
// summarized by shape.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := ""
	for i := 0; i < m.Rows; i++ {
		s += fmt.Sprintf("%v\n", m.Row(i))
	}
	return s
}
