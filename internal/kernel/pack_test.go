package kernel

import (
	"fmt"
	"math"
	"testing"

	"abmm/internal/cpu"
	"abmm/internal/matrix"
)

// packSource returns a rows×cols view (row stride cols+3) of uniform
// values in [-1, 1) with NaN, both infinities, negative zeros and a
// value that overflows when scaled by −3 sprinkled in.
func packSource(seed uint64, rows, cols int) *matrix.Matrix {
	base := matrix.New(rows, cols+3)
	randFill(matrix.Rand(seed), base.Data)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e308}
	for x := int(seed) % 13; x < len(base.Data); x += 29 {
		base.Data[x] = specials[x%len(specials)]
	}
	return base.View(0, 0, rows, cols)
}

// packGuard is the canary region past the end of every panel buffer
// the pack tests hand out; packCanary fills it and the panels.
const packGuard = 64

func packCanary(x int) float64 { return 1e6 + float64(x) }

// packTermLists returns every term list of 1 to 3 terms over the
// coefficients 1, −1 and −3, so each term position takes each of its
// three modes (first term: copy, negate, scale; later terms: add,
// subtract, multiply-add) after each mode of the terms before it.
func packTermLists(srcs []*matrix.Matrix) [][]Term {
	coefs := []float64{1, -1, -3}
	lists := [][]Term{nil}
	var out [][]Term
	for n := 0; n < len(srcs); n++ {
		var next [][]Term
		for _, l := range lists {
			for _, c := range coefs {
				next = append(next, append(append([]Term(nil), l...), Term{Coeff: c, M: srcs[n]}))
			}
		}
		out = append(out, next...)
		lists = next
	}
	return out
}

// TestPackRoutinesAgreeBitwise packs the same blocks under every
// routine the host supports and compares each with the Go loops
// (useISA = cpu.Generic): every mode in 1–3-term combinations, k
// counts around both vector widths and past kc's default, full and
// ragged panels, and a block starting past the sources' first row and
// column of strided views that hold NaN, infinities and −0. Panels
// start out filled with canaries and carry a guard region past their
// end, so an element a routine skips or a write out of range changes
// the result. Non-NaN elements must match to the bit and NaNs must sit
// in the same places (a product by −1 or 1 may return a NaN with
// another sign or payload than Go's negation or copy).
func TestPackRoutinesAgreeBitwise(t *testing.T) {
	isas := hostISAs()
	t.Logf("host routines: %d of %d (widest %s)", len(isas), len(isaNames), isaNames[cpu.Host])
	const i0, j0, k0 = 5, 3, 3
	// run packs one case under routine i into a fresh canary-filled
	// buffer of size elements plus the guard region.
	run := func(i cpu.ISA, size int, pack func(dst []float64)) []float64 {
		forceISA(t, i)
		buf := make([]float64, size+packGuard)
		for x := range buf {
			buf[x] = packCanary(x)
		}
		pack(buf[:size])
		return buf
	}
	check := func(name string, i cpu.ISA, got, want []float64) {
		t.Helper()
		for x, w := range want {
			g := got[x]
			if math.IsNaN(g) != math.IsNaN(w) || !math.IsNaN(w) && math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: %s [%d] = %v, go loop %v", name, isaNames[i], x, g, w)
			}
		}
	}
	for _, kc := range []int{1, 4, 7, 8, 9, 64, 256, 300} {
		for _, m := range []int{16, 37, 64} {
			srcs := []*matrix.Matrix{
				packSource(1, i0+m+1, k0+kc+2),
				packSource(2, i0+m+1, k0+kc+2),
				packSource(3, i0+m+1, k0+kc+2),
			}
			size := roundUp(m, MR) * kc
			for _, terms := range packTermLists(srcs) {
				pack := func(dst []float64) { packA(dst, terms, i0, m, k0, kc) }
				want := run(cpu.Generic, size, pack)
				for _, i := range isas[1:] {
					check(fmt.Sprintf("packA m=%d kc=%d %v", m, kc, coefList(terms)), i, run(i, size, pack), want)
				}
			}
		}
		for _, n := range []int{8, 23, 64} {
			srcs := []*matrix.Matrix{
				packSource(4, k0+kc+1, j0+n+2),
				packSource(5, k0+kc+1, j0+n+2),
				packSource(6, k0+kc+1, j0+n+2),
			}
			panels := (n + NR - 1) / NR
			size := panels * NR * kc
			for _, terms := range packTermLists(srcs) {
				pack := func(dst []float64) { packB(dst, terms, k0, kc, j0, n, 0, panels) }
				want := run(cpu.Generic, size, pack)
				for _, i := range isas[1:] {
					check(fmt.Sprintf("packB n=%d kc=%d %v", n, kc, coefList(terms)), i, run(i, size, pack), want)
				}
			}
		}
	}
}

func coefList(terms []Term) []float64 {
	out := make([]float64, len(terms))
	for t, term := range terms {
		out[t] = term.Coeff
	}
	return out
}

// TestPackBadViewPanics hands packA and packB a source whose storage
// is one row, or one element of the last row, short of the block it
// claims. Every routine must panic rather than read past the slice:
// the vector routines read through a raw pointer, so packAVec's and
// packBVec's bounds checks are all that stand between a bad view and a
// read out of range.
func TestPackBadViewPanics(t *testing.T) {
	const rows, cols = 64, 64
	short := map[string]int{"row": rows*cols - cols, "column": rows*cols - 1}
	for _, i := range hostISAs() {
		forceISA(t, i)
		for what, n := range short {
			src := &matrix.Matrix{Rows: rows, Cols: cols, Stride: cols, Data: make([]float64, n)}
			terms := []Term{{Coeff: 1, M: src}}
			dst := make([]float64, rows*cols)
			for name, pack := range map[string]func(){
				"packA": func() { packA(dst, terms, 0, rows, 0, cols) },
				"packB": func() { packB(dst, terms, 0, rows, 0, cols, 0, cols/NR) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s: %s of a source one %s short did not panic", isaNames[i], name, what)
						}
					}()
					pack()
				}()
			}
		}
	}
}

// BenchmarkPack times packA and packB alone, with one and two terms,
// under each routine the host runs: on deep-1023's 64×64 leaf block
// (A and B) and on square-2048's 128×256 A block and 256×512 B panel
// (the default blocking's mc×kc and kc×nc). Sources are contiguous.
// GB/s counts the bytes each call must move: every term's source block
// read once and the panel written once.
func BenchmarkPack(b *testing.B) {
	type block struct {
		name       string
		a          bool
		rows, cols int
	}
	for _, blk := range []block{
		{"A/64x64", true, 64, 64},
		{"B/64x64", false, 64, 64},
		{"A/128x256", true, 128, 256},
		{"B/256x512", false, 256, 512},
	} {
		srcs := []*matrix.Matrix{matrix.New(blk.rows, blk.cols), matrix.New(blk.rows, blk.cols)}
		randFill(matrix.Rand(1), srcs[0].Data)
		randFill(matrix.Rand(2), srcs[1].Data)
		dst := make([]float64, blk.rows*blk.cols)
		for _, nt := range []int{1, 2} {
			terms := []Term{{Coeff: 1, M: srcs[0]}, {Coeff: -1, M: srcs[1]}}[:nt]
			bytes := float64(8 * blk.rows * blk.cols * (nt + 1))
			for _, i := range hostISAs() {
				b.Run(fmt.Sprintf("%s/terms=%d/%s", blk.name, nt, isaNames[i]), func(b *testing.B) {
					forceISA(b, i)
					for r := 0; r < b.N; r++ {
						if blk.a {
							packA(dst, terms, 0, blk.rows, 0, blk.cols)
						} else {
							packB(dst, terms, 0, blk.rows, 0, blk.cols, 0, blk.cols/NR)
						}
					}
					b.ReportMetric(bytes*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
				})
			}
		}
	}
}
