//go:build amd64

package kernel

// micro16x8AVX512 is the ZMM micro-kernel (micro_amd64.s): sixteen
// accumulators seeded from outs[0]'s tile or zeroed, kc ≥ 1 packed k
// steps of one fused multiply-add per accumulator, then the write-out
// to each of the n outs.
//
//go:noescape
func micro16x8AVX512(ap, bp *float64, kc int, seed bool, outs *tileOut, n int)

// micro16x8AVX2 is the YMM micro-kernel (micro_amd64.s): the same tile
// as four 4×8 sub-tiles, same fused rounding and write-out.
//
//go:noescape
func micro16x8AVX2(ap, bp *float64, kc int, seed bool, outs *tileOut, n int)
