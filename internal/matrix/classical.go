package matrix

import "math"

// MulNaive is the textbook triple loop, used only as an independent
// oracle in tests; the library's classical product is the packed-panel
// kernel in internal/kernel, which this package cannot reach (it would
// invert the import DAG). Each element is the chain
// s = fma(a_ik, b_kj, s) in ascending k, one rounding per step: the
// chain every micro-kernel routine of the packed kernel computes, which
// the oracle pins bitwise. It calls math.FMA rather than writing
// s += a*b because the compiler may fuse the latter or not, depending on
// the target (arm64 does, amd64 does not); math.FMA gives the same bits
// on every architecture.
func MulNaive(c, a, b *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(ErrShape)
	}
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s = math.FMA(a.At(i, k), b.At(k, j), s)
			}
			c.Set(i, j, s)
		}
	}
}
