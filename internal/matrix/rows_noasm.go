//go:build !amd64

package matrix

// The assembly routines are never called when useISA is cpu.Generic,
// which it always is off amd64; these stubs keep the dispatch in
// ops.go portable.

func combine2AVX512(d, x, y *float64, n int, c0, c1 float64) {
	panic("matrix: AVX-512 row routine on a non-amd64 build")
}

func axpyAVX512(d, x *float64, n int, c float64) {
	panic("matrix: AVX-512 row routine on a non-amd64 build")
}

func combine2AVX2(d, x, y *float64, n int, c0, c1 float64) {
	panic("matrix: AVX2 row routine on a non-amd64 build")
}

func axpyAVX2(d, x *float64, n int, c float64) {
	panic("matrix: AVX2 row routine on a non-amd64 build")
}
