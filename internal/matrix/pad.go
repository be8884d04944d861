package matrix

// PadTo returns m zero-padded to r-by-c. If m already has that shape it
// is returned unchanged (no copy).
func (m *Matrix) PadTo(r, c int) *Matrix {
	if r < m.Rows || c < m.Cols {
		panic("matrix: PadTo target smaller than source")
	}
	if r == m.Rows && c == m.Cols {
		return m
	}
	out := New(r, c)
	CopyInto(out.View(0, 0, m.Rows, m.Cols), m)
	return out
}

// PadInto copies src into the top-left corner of dst and zeroes the
// remaining border. dst must be at least as large as src in both
// dimensions. It is the destination-passing form of PadTo: dst may be
// recycled scratch with arbitrary prior contents.
//
//abmm:hotpath
func PadInto(dst, src *Matrix) {
	if dst.Rows < src.Rows || dst.Cols < src.Cols {
		panic("matrix: PadInto target smaller than source")
	}
	for i := 0; i < src.Rows; i++ {
		d, s := dst.Row(i), src.Row(i)
		copy(d, s)
		for j := src.Cols; j < dst.Cols; j++ {
			d[j] = 0
		}
	}
	for i := src.Rows; i < dst.Rows; i++ {
		d := dst.Row(i)
		for j := range d {
			d[j] = 0
		}
	}
}

// CropInto copies the top-left dst.Rows-by-dst.Cols corner of src into
// dst, the destination-passing form of CropTo. src must be at least as
// large as dst in both dimensions.
//
//abmm:hotpath
func CropInto(dst, src *Matrix) {
	if dst.Rows > src.Rows || dst.Cols > src.Cols {
		panic("matrix: CropInto target larger than source")
	}
	for i := 0; i < dst.Rows; i++ {
		copy(dst.Row(i), src.Row(i)[:dst.Cols])
	}
}

// CropTo returns the top-left r-by-c corner of m as a copy with
// contiguous storage. If m already has that shape it is returned
// unchanged.
func (m *Matrix) CropTo(r, c int) *Matrix {
	if r > m.Rows || c > m.Cols {
		panic("matrix: CropTo target larger than source")
	}
	if r == m.Rows && c == m.Cols {
		return m
	}
	return m.View(0, 0, r, c).Clone()
}

// PadShape computes the padded dimensions for multiplying an m-by-k
// matrix by a k-by-n matrix with l recursive steps of an
// ⟨m0,k0,n0⟩-base-case algorithm: each dimension is rounded up to the
// next multiple of the corresponding base raised to l.
func PadShape(m, k, n, m0, k0, n0, l int) (pm, pk, pn int) {
	return roundUp(m, pow(m0, l)), roundUp(k, pow(k0, l)), roundUp(n, pow(n0, l))
}

func roundUp(n, q int) int {
	if q <= 1 {
		return n
	}
	return (n + q - 1) / q * q
}

func pow(b, e int) int {
	v := 1
	for ; e > 0; e-- {
		v *= b
	}
	return v
}
