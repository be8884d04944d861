//go:build !amd64

package kernel

// The assembly routines are never called when useISA is cpu.Generic,
// which it always is off amd64; these stubs keep the dispatch in
// pack.go portable.

func packAAVX512(panel, src *float64, ld, kc int, coeff float64, mode int) {
	panic("kernel: AVX-512 pack on a non-amd64 build")
}

func packAAVX2(panel, src *float64, ld, kc int, coeff float64, mode int) {
	panic("kernel: AVX2 pack on a non-amd64 build")
}

func packBAVX512(panel, src *float64, ld, kc int, coeff float64, mode int) {
	panic("kernel: AVX-512 pack on a non-amd64 build")
}

func packBAVX2(panel, src *float64, ld, kc int, coeff float64, mode int) {
	panic("kernel: AVX2 pack on a non-amd64 build")
}
