//go:build amd64

package matrix

// combine2AVX512 sets d[j] = c0·x[j] + c1·y[j] for j < n, n a positive
// multiple of 8 (rows_amd64.s).
//
//go:noescape
func combine2AVX512(d, x, y *float64, n int, c0, c1 float64)

// axpyAVX512 sets d[j] += c·x[j] for j < n, n a positive multiple of 8.
//
//go:noescape
func axpyAVX512(d, x *float64, n int, c float64)

// combine2AVX2 is combine2AVX512 in YMM registers, n a positive
// multiple of 4.
//
//go:noescape
func combine2AVX2(d, x, y *float64, n int, c0, c1 float64)

// axpyAVX2 is axpyAVX512 in YMM registers, n a positive multiple of 4.
//
//go:noescape
func axpyAVX2(d, x *float64, n int, c float64)
