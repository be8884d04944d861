//go:build !amd64

package kernel

// Non-amd64 targets always take the portable Go micro-kernel.
const hostISA = isaGo

// The assembly routines are never called when hostISA is isaGo; these
// stubs keep the dispatch in micro.go portable.

func micro16x8AVX512(ap, bp *float64, kc int, acc *[MR * NR]float64) {
	panic("kernel: AVX-512 micro-kernel on a non-amd64 build")
}

func micro16x8AVX2(ap, bp *float64, kc int, acc *[MR * NR]float64) {
	panic("kernel: AVX2 micro-kernel on a non-amd64 build")
}
