package matrix

// PadInto copies src into the top-left corner of dst and zeroes the
// remaining border. dst must be at least as large as src in both
// dimensions; it may be recycled scratch with arbitrary prior contents.
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
// dst. src must be at least as large as dst in both dimensions.
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
