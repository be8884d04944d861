// Package exact implements exact rational linear algebra over
// math/big.Rat. It is the construction-time substrate of the algorithm
// catalog: encoding/decoding matrices ⟨U,V,W⟩ and basis transformations
// φ, ψ, ν are represented exactly, alternative basis operators are
// derived by exact inversion (U_φ = φ⁻¹U), compositions use exact
// Kronecker products, and the Brent triple-product verifier proves that
// a coefficient triple really is a matrix multiplication algorithm.
// Floating-point roundoff therefore can never corrupt an algorithm
// definition; it only enters in the execution engine.
package exact

import (
	"fmt"
	"math/big"
	"strings"
)

// Matrix is a dense matrix of rational numbers. Entries are never nil.
type Matrix struct {
	Rows, Cols int
	data       []big.Rat
}

// New returns a zeroed r-by-c rational matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic("exact: negative dimension")
	}
	return &Matrix{Rows: r, Cols: c, data: make([]big.Rat, r*c)}
}

// FromInts builds a matrix from a row-major slice of int64 values.
func FromInts(r, c int, vals []int64) *Matrix {
	if len(vals) != r*c {
		panic(fmt.Sprintf("exact: FromInts needs %d values, got %d", r*c, len(vals)))
	}
	m := New(r, c)
	for i, v := range vals {
		m.data[i].SetInt64(v)
	}
	return m
}

// FromRows builds a matrix from int64 row slices of equal length.
func FromRows(rows [][]int64) *Matrix {
	r := len(rows)
	if r == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("exact: ragged rows")
		}
		for j, v := range row {
			m.data[i*c+j].SetInt64(v)
		}
	}
	return m
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i].SetInt64(1)
	}
	return m
}

// At returns a pointer to the entry at (i, j). The returned value
// aliases the matrix storage and must not be mutated by the caller; use
// Set to modify entries.
func (m *Matrix) At(i, j int) *big.Rat { return &m.data[i*m.Cols+j] }

// Set stores a copy of v at (i, j).
func (m *Matrix) Set(i, j int, v *big.Rat) { m.data[i*m.Cols+j].Set(v) }

// SetInt stores the integer v at (i, j).
func (m *Matrix) SetInt(i, j int, v int64) { m.data[i*m.Cols+j].SetInt64(v) }

// SetFrac stores num/den at (i, j).
func (m *Matrix) SetFrac(i, j int, num, den int64) { m.data[i*m.Cols+j].SetFrac64(num, den) }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	for i := range m.data {
		out.data[i].Set(&m.data[i])
	}
	return out
}

// Equal reports whether a and b are identical.
func Equal(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.data {
		if a.data[i].Cmp(&b.data[i]) != 0 {
			return false
		}
	}
	return true
}

// IsIdentity reports whether m is a square identity matrix.
func (m *Matrix) IsIdentity() bool {
	return m.Rows == m.Cols && Equal(m, Identity(m.Rows))
}

// NNZ returns the number of nonzero entries, the quantity that
// determines linear-phase addition counts (nnz minus one addition per
// computed combination).
func (m *Matrix) NNZ() int {
	n := 0
	for i := range m.data {
		if m.data[i].Sign() != 0 {
			n++
		}
	}
	return n
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.data[j*out.Cols+i].Set(&m.data[i*m.Cols+j])
		}
	}
	return out
}

// Mul returns a·b.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic("exact: dimension mismatch in Mul")
	}
	out := New(a.Rows, b.Cols)
	var t big.Rat
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := &a.data[i*a.Cols+k]
			if av.Sign() == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				bv := &b.data[k*b.Cols+j]
				if bv.Sign() == 0 {
					continue
				}
				t.Mul(av, bv)
				e := &out.data[i*out.Cols+j]
				e.Add(e, &t)
			}
		}
	}
	return out
}

// Add returns a+b.
func Add(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("exact: dimension mismatch in Add")
	}
	out := New(a.Rows, a.Cols)
	for i := range out.data {
		out.data[i].Add(&a.data[i], &b.data[i])
	}
	return out
}

// Sub returns a-b.
func Sub(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("exact: dimension mismatch in Sub")
	}
	out := New(a.Rows, a.Cols)
	for i := range out.data {
		out.data[i].Sub(&a.data[i], &b.data[i])
	}
	return out
}

// Scale returns c·m.
func Scale(m *Matrix, c *big.Rat) *Matrix {
	out := New(m.Rows, m.Cols)
	for i := range out.data {
		out.data[i].Mul(&m.data[i], c)
	}
	return out
}

// Kronecker returns the Kronecker product a⊗b, the operator that lifts
// one-level coefficient matrices to L levels (Claim III.13) and builds
// tensor-composed algorithms.
func Kronecker(a, b *Matrix) *Matrix {
	out := New(a.Rows*b.Rows, a.Cols*b.Cols)
	var t big.Rat
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			av := &a.data[i*a.Cols+j]
			if av.Sign() == 0 {
				continue
			}
			for p := 0; p < b.Rows; p++ {
				for q := 0; q < b.Cols; q++ {
					bv := &b.data[p*b.Cols+q]
					if bv.Sign() == 0 {
						continue
					}
					t.Mul(av, bv)
					out.data[(i*b.Rows+p)*out.Cols+j*b.Cols+q].Set(&t)
				}
			}
		}
	}
	return out
}

// Inverse returns m⁻¹ computed by Gauss–Jordan elimination, or an error
// if m is singular or not square.
func (m *Matrix) Inverse() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("exact: cannot invert %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	a := m.Clone()
	inv := Identity(n)
	var t, f big.Rat
	for col := 0; col < n; col++ {
		// Find a pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if a.data[r*n+col].Sign() != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, fmt.Errorf("exact: singular matrix (no pivot in column %d)", col)
		}
		if pivot != col {
			swapRows(a, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Normalize the pivot row.
		f.Inv(&a.data[col*n+col])
		scaleRow(a, col, &f)
		scaleRow(inv, col, &f)
		// Eliminate the column elsewhere.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			pv := &a.data[r*n+col]
			if pv.Sign() == 0 {
				continue
			}
			f.Neg(pv)
			for c := 0; c < n; c++ {
				t.Mul(&f, &a.data[col*n+c])
				a.data[r*n+c].Add(&a.data[r*n+c], &t)
				t.Mul(&f, &inv.data[col*n+c])
				inv.data[r*n+c].Add(&inv.data[r*n+c], &t)
			}
		}
	}
	return inv, nil
}

func swapRows(m *Matrix, i, j int) {
	for c := 0; c < m.Cols; c++ {
		m.data[i*m.Cols+c], m.data[j*m.Cols+c] = m.data[j*m.Cols+c], m.data[i*m.Cols+c]
	}
}

func scaleRow(m *Matrix, i int, f *big.Rat) {
	for c := 0; c < m.Cols; c++ {
		m.data[i*m.Cols+c].Mul(&m.data[i*m.Cols+c], f)
	}
}

// Float64s converts the matrix to a row-major float64 slice. It panics
// if any entry is not exactly representable; all coefficient sets used
// by the library are dyadic rationals, which convert exactly.
func (m *Matrix) Float64s() []float64 {
	out := make([]float64, len(m.data))
	for i := range m.data {
		f, exact := m.data[i].Float64()
		if !exact {
			panic(fmt.Sprintf("exact: entry %s not exactly representable as float64", m.data[i].RatString()))
		}
		out[i] = f
	}
	return out
}

// String renders the matrix with aligned rational entries.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(m.data[i*m.Cols+j].RatString())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
