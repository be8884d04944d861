package kernel

import (
	"fmt"
	"math"
	"testing"

	"abmm/internal/matrix"
	"abmm/internal/pool"
)

// paddedCopy returns a copy of m whose rows are pad elements further
// apart than its columns, as pool.Arena.Mat lays out a wide block. The
// gaps between rows hold NaN canaries, which gapsIntact checks
// afterwards.
func paddedCopy(m *matrix.Matrix, pad int) *matrix.Matrix {
	big := matrix.New(m.Rows, m.Cols+pad)
	big.Fill(math.NaN())
	v := big.View(0, 0, m.Rows, m.Cols)
	matrix.CopyInto(v, m)
	return v
}

// gapsIntact reports whether every element of m's storage between its
// rows still holds a paddedCopy canary.
func gapsIntact(m *matrix.Matrix) bool {
	for i := 0; i < m.Rows-1; i++ {
		for _, v := range m.Data[i*m.Stride+m.Cols : (i+1)*m.Stride] {
			if !math.IsNaN(v) {
				return false
			}
		}
	}
	return true
}

// TestGEMMStrideInvariant holds GEMM on padded-stride views of its
// operands and outputs bit for bit to GEMM on contiguous copies, under
// every routine the host runs: the per-element fused chain and the
// write-out's rounding do not depend on where a row starts. It covers
// the direct path (overwrite and accumulate), one scaled output, and
// two accumulating outputs of a two-term product, on one kc slice and
// on two, at one and two workers, and checks that no routine writes
// between an output's rows.
func TestGEMMStrideInvariant(t *testing.T) {
	cases := []strideCase{
		{"direct", []float64{1}, false, 1},
		{"direct-accum", []float64{1}, true, 1},
		{"scaled", []float64{0.5}, false, 2},
		{"two-accum", []float64{1, -1}, true, 2},
	}
	for _, sh := range []struct{ m, k, n int }{
		{48, 256, 256},  // one kc slice
		{144, 512, 264}, // two kc slices, two mc blocks, an edge panel
	} {
		as := make([]*matrix.Matrix, 2)
		bs := make([]*matrix.Matrix, 2)
		for i := range as {
			as[i], bs[i] = matrix.New(sh.m, sh.k), matrix.New(sh.k, sh.n)
			fill(as[i], 1+i)
			fill(bs[i], 3+i)
		}
		for _, tc := range cases {
			for _, workers := range []int{1, 2} {
				for _, isa := range hostISAs() {
					forceISA(t, isa)
					want := tc.run(as, bs, workers, 0)
					got := tc.run(as, bs, workers, 8)
					for o := range want {
						if !matrix.Equal(got[o], want[o]) {
							t.Errorf("%dx%dx%d %s w%d %s: output %d on padded strides differs bitwise from contiguous",
								sh.m, sh.k, sh.n, tc.name, workers, isaNames[isa], o)
						}
						if !gapsIntact(got[o]) {
							t.Errorf("%dx%dx%d %s w%d %s: output %d's row gaps were written",
								sh.m, sh.k, sh.n, tc.name, workers, isaNames[isa], o)
						}
					}
				}
			}
		}
	}
}

// strideCase is one GEMM configuration of TestGEMMStrideInvariant.
type strideCase struct {
	name   string
	coeffs []float64 // one per output
	accum  bool
	terms  int // terms on each operand side
}

// run multiplies the first tc.terms of as and bs (with coefficients 1,
// -1) into one output per coefficient, each seeded with the fill
// pattern, every matrix laid out with pad extra elements per row, and
// returns the outputs.
func (tc strideCase) run(as, bs []*matrix.Matrix, workers, pad int) []*matrix.Matrix {
	var at, bt []Term
	for i, c := range []float64{1, -1}[:tc.terms] {
		at = append(at, Term{Coeff: c, M: paddedCopy(as[i], pad)})
		bt = append(bt, Term{Coeff: c, M: paddedCopy(bs[i], pad)})
	}
	outs := make([]Out, len(tc.coeffs))
	res := make([]*matrix.Matrix, len(tc.coeffs))
	for o, c := range tc.coeffs {
		seed := matrix.New(as[0].Rows, bs[0].Cols)
		fill(seed, 7+o)
		res[o] = paddedCopy(seed, pad)
		outs[o] = Out{Coeff: c, M: res[o], Accum: tc.accum}
	}
	GEMM(outs, at, bt, Blocking{}, workers, pool.NewArena(), nil)
	return res
}

// BenchmarkGEMMStride measures what a row stride that is a whole number
// of 2 KiB costs the kernel: one-worker GEMMs on n×n operands and
// outputs with stride n (ld=n) and with one 64-byte line more
// (ld=n+8), for the direct path and for two accumulating outputs, the
// fused leaf's common case. pool.Arena.Mat uses n+8 when n is a
// multiple of 256 and n below that; n=128 shows why. GFLOP/s counts
// 2n³ per call. DESIGN.md §2e records a run.
func BenchmarkGEMMStride(b *testing.B) {
	ar := pool.NewArena()
	for _, n := range []int{128, 256, 512, 1024} {
		for _, ld := range []int{n, n + 8} {
			mk := func(seed int) *matrix.Matrix {
				m := matrix.New(n, ld).View(0, 0, n, n)
				fill(m, seed)
				return m
			}
			at := []Term{{Coeff: 1, M: mk(1)}}
			bt := []Term{{Coeff: 1, M: mk(2)}}
			c0, c1 := mk(3), mk(4)
			for _, k := range []struct {
				name string
				outs []Out
			}{
				{"direct", []Out{{Coeff: 1, M: c0}}},
				{"two-out", []Out{{Coeff: 1, M: c0, Accum: true}, {Coeff: -1, M: c1, Accum: true}}},
			} {
				b.Run(fmt.Sprintf("%s/n=%d/ld=%d", k.name, n, ld), func(b *testing.B) {
					for r := 0; r < b.N; r++ {
						GEMM(k.outs, at, bt, Blocking{}, 1, ar, nil)
					}
					b.ReportMetric(2*float64(n*n)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
				})
			}
		}
	}
}
