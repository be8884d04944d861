package matrix

import (
	"fmt"
	"math"
	"testing"

	"abmm/internal/cpu"
)

var isaNames = [...]string{cpu.Generic: "go", cpu.AVX2: "avx2", cpu.AVX512: "avx512"}

// hostISAs lists the row routines this host runs, narrowest (the Go
// loops) first.
func hostISAs() []cpu.ISA {
	var out []cpu.ISA
	for i := cpu.Generic; i <= cpu.Host; i++ {
		out = append(out, i)
	}
	return out
}

// forceISA makes the row loops use routine i until the test ends.
func forceISA(tb testing.TB, i cpu.ISA) {
	prev := useISA
	useISA = i
	tb.Cleanup(func() { useISA = prev })
}

// specialView returns a rows×n view (row stride n+3) of uniform values
// with a NaN, infinities, a negative zero and a value that overflows
// when scaled by −3 sprinkled in.
func specialView(seed uint64, rows, n int) *Matrix {
	base := randMat(seed, rows, n+3)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e308}
	for x := int(seed) % 7; x < len(base.Data); x += 11 {
		base.Data[x] = specials[x%len(specials)]
	}
	return base.View(0, 0, rows, n)
}

// TestRowRoutinesAgreeBitwise runs LinearCombine (2 and 3 terms, into
// a fresh destination and into its first source) under every row
// routine the host supports and compares each with the Go loops: row
// lengths 1–33 cover every tail length of both vector widths, and 1000
// the unrolled main loops. The aliased cases with coefficients (1, c, 0)
// are the in-place transforms' group add, d += c·y. Non-NaN elements must
// match to the bit and NaNs must sit in the same places (a product
// by −1 or 1 may return a NaN with another sign or payload than Go's
// negation or copy). It then runs the row loops over rows [2, 5) of
// contiguous operands, which they walk as one span, under every
// routine, and compares them with the Go loops over the same data in
// strided views (row stride cols+3), which they walk row by row; and
// last the same over spans long enough to cross combinePiece.
func TestRowRoutinesAgreeBitwise(t *testing.T) {
	isas := hostISAs()
	t.Logf("host routines: %d of %d (widest %s)", len(isas), len(isaNames), isaNames[cpu.Host])
	coefs := []float64{1, -1, 0.5, -3}
	const rows = 3
	lengths := []int{1000}
	for n := 1; n <= 33; n++ {
		lengths = append(lengths, n)
	}
	// run computes one case under routine i into a destination filled
	// with distinct values (or into a copy of the first source when
	// alias is set), so an element the routine skips keeps a value the
	// Go loops would have overwritten.
	run := func(i cpu.ISA, n int, alias bool, f func(dst *Matrix)) *Matrix {
		forceISA(t, i)
		dst := specialView(99, rows, n).Clone()
		if alias {
			dst = specialView(1, rows, n).Clone()
		}
		f(dst)
		return dst
	}
	check := func(name string, i cpu.ISA, got, want *Matrix) {
		t.Helper()
		for r := 0; r < got.Rows; r++ {
			for c := 0; c < got.Cols; c++ {
				g, w := got.At(r, c), want.At(r, c)
				if math.IsNaN(g) != math.IsNaN(w) || !math.IsNaN(w) && math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: %s [%d][%d] = %v, go loop %v", name, isaNames[i], r, c, g, w)
				}
			}
		}
	}
	for _, n := range lengths {
		x, y, z := specialView(1, rows, n), specialView(2, rows, n), specialView(3, rows, n)
		for _, c0 := range coefs {
			for _, c1 := range coefs {
				for _, c2 := range append([]float64{0}, coefs...) {
					for _, alias := range []bool{false, true} {
						f := func(dst *Matrix) {
							first := x
							if alias {
								first = dst
							}
							LinearCombine(dst, []float64{c0, c1, c2}, []*Matrix{first, y, z}, 1)
						}
						want := run(cpu.Generic, n, alias, f)
						for _, i := range isas[1:] {
							name := fmt.Sprintf("n=%d LinearCombine(%v, %v, %v) alias=%v", n, c0, c1, c2, alias)
							check(name, i, run(i, n, alias, f), want)
						}
					}
				}
			}
		}
	}

	const blockRows, lo, hi = 6, 2, 5
	for n := 1; n <= 33; n++ {
		strided := []*Matrix{specialView(1, blockRows, n), specialView(2, blockRows, n), specialView(3, blockRows, n)}
		contig := []*Matrix{strided[0].Clone(), strided[1].Clone(), strided[2].Clone()}
		for _, c0 := range coefs {
			for _, c1 := range coefs {
				cases := []struct {
					name string
					f    func(dst *Matrix, src []*Matrix)
				}{
					{"combineRows 2 terms", func(dst *Matrix, src []*Matrix) {
						combineRows(dst, []lcTerm{{c0, src[0]}, {c1, src[1]}}, lo, hi)
					}},
					{"combineRows 3 terms", func(dst *Matrix, src []*Matrix) {
						combineRows(dst, []lcTerm{{c0, src[0]}, {c1, src[1]}, {-c0, src[2]}}, lo, hi)
					}},
					{"combineRows 1 term", func(dst *Matrix, src []*Matrix) {
						combineRows(dst, []lcTerm{{c1, src[1]}}, lo, hi)
					}},
				}
				for _, tc := range cases {
					forceISA(t, cpu.Generic)
					want := specialView(99, blockRows, n)
					tc.f(want, strided)
					for _, i := range isas {
						forceISA(t, i)
						got := specialView(99, blockRows, n).Clone()
						tc.f(got, contig)
						check(fmt.Sprintf("n=%d %s(%v, %v) contiguous", n, tc.name, c0, c1), i, got, want)
					}
				}
			}
		}
	}

	// Contiguous operands of 3×701 and 3×1001 form one span of 2103 or
	// 3003 elements: two whole pieces and a last one with a tail under
	// both vector widths. LinearCombine with 2, 3 and 5 terms, into a
	// fresh destination and into its first source, must give under
	// every routine what the Go loops give on the same data in strided
	// views, which they walk row by row.
	coef5 := []float64{-3, 0.5, 1, -1, 1}
	for _, n := range []int{701, 1001} {
		strided := make([]*Matrix, len(coef5))
		for k := range strided {
			strided[k] = specialView(uint64(k+1), rows, n)
		}
		// combine writes the first terms of the sources into a
		// destination filled with distinct values, or into a copy of
		// the first source that then stands in for it; contig runs it
		// on contiguous copies.
		combine := func(terms int, alias, contig bool) *Matrix {
			srcs := make([]*Matrix, terms)
			for k := range srcs {
				srcs[k] = strided[k]
				if contig {
					srcs[k] = srcs[k].Clone()
				}
			}
			dst := specialView(99, rows, n)
			if alias {
				dst = specialView(1, rows, n)
			}
			if contig {
				dst = dst.Clone()
			}
			if alias {
				srcs[0] = dst
			}
			LinearCombine(dst, coef5[:terms], srcs, 1)
			return dst
		}
		for _, terms := range []int{2, 3, 5} {
			for _, alias := range []bool{false, true} {
				forceISA(t, cpu.Generic)
				want := combine(terms, alias, false)
				for _, i := range isas {
					forceISA(t, i)
					name := fmt.Sprintf("%dx%d LinearCombine %d terms alias=%v contiguous", rows, n, terms, alias)
					check(name, i, combine(terms, alias, true), want)
				}
			}
		}
	}
}

// BenchmarkLinearCombine times the two row routines through their
// public entry point at one worker, under each routine the host runs:
// a two-term LinearCombine (d = c0·x + c1·y), the same combination
// written over its first term (axpy: d = 1·d + c·x, the in-place
// transforms' group add), and a four-term one in the shape of `ours`'s
// write-once decode, d = ((x + y) − z) + w, on n×n operands of which
// three fit in L2 together (n=128: 3 × 128 KiB) and on operands the
// size of deep-1023's transforms (n=1024: 8 MiB each, past L2 and
// within a server LLC). GB/s counts the n² streams a combination moves
// at least: every source read once and the destination written once.
func BenchmarkLinearCombine(b *testing.B) {
	for _, n := range []int{128, 1024} {
		x, y, z, w, d := randMat(1, n, n), randMat(2, n, n), randMat(3, n, n), randMat(4, n, n), New(n, n)
		bytes := float64(3 * 8 * n * n)
		for _, i := range hostISAs() {
			b.Run(fmt.Sprintf("combine2/%s/n=%d", isaNames[i], n), func(b *testing.B) {
				forceISA(b, i)
				coeffs, srcs := []float64{0.5, -3}, []*Matrix{x, y}
				for r := 0; r < b.N; r++ {
					LinearCombine(d, coeffs, srcs, 1)
				}
				b.ReportMetric(bytes*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
			})
			b.Run(fmt.Sprintf("axpy/%s/n=%d", isaNames[i], n), func(b *testing.B) {
				forceISA(b, i)
				coeffs, srcs := []float64{1, 0.5}, []*Matrix{d, x}
				for r := 0; r < b.N; r++ {
					LinearCombine(d, coeffs, srcs, 1)
				}
				b.ReportMetric(bytes*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
			})
			b.Run(fmt.Sprintf("combine4/%s/n=%d", isaNames[i], n), func(b *testing.B) {
				forceISA(b, i)
				coeffs, srcs := []float64{1, 1, -1, 1}, []*Matrix{x, y, z, w}
				for r := 0; r < b.N; r++ {
					LinearCombine(d, coeffs, srcs, 1)
				}
				b.ReportMetric(5.0/3*bytes*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
			})
		}
	}
}
