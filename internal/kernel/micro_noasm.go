//go:build !amd64

package kernel

// The assembly routines are never called when useISA is cpu.Generic,
// which it always is off amd64; these stubs keep the dispatch in
// micro.go portable.

func micro16x8AVX512(ap, bp *float64, kc int, seed bool, outs *tileOut, n int) {
	panic("kernel: AVX-512 micro-kernel on a non-amd64 build")
}

func micro16x8AVX2(ap, bp *float64, kc int, seed bool, outs *tileOut, n int) {
	panic("kernel: AVX2 micro-kernel on a non-amd64 build")
}
