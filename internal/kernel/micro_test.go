package kernel

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"abmm/internal/cpu"
	"abmm/internal/matrix"
	"abmm/internal/pool"
)

var isaNames = [...]string{cpu.Generic: "go", cpu.AVX2: "avx2", cpu.AVX512: "avx512"}

// hostISAs lists the micro-kernel routines this host runs, narrowest
// first. Each routine's CPU requirement includes the previous one's.
func hostISAs() []cpu.ISA {
	var out []cpu.ISA
	for i := cpu.Generic; i <= cpu.Host; i++ {
		out = append(out, i)
	}
	return out
}

// forceISA makes the micro-kernel run routine i until the test ends.
func forceISA(tb testing.TB, i cpu.ISA) {
	prev := useISA
	useISA = i
	tb.Cleanup(func() { useISA = prev })
}

// randFill fills s with uniform values in [-1, 1).
func randFill(rng *rand.Rand, s []float64) {
	for i := range s {
		s[i] = rng.Float64()*2 - 1
	}
}

// TestMicroKernelsAgreeBitwise runs every routine the host supports on
// the same packed panels and requires results equal to the bit, both
// through the accumulator array (edge tiles) and in place (full tiles).
// Without it, a host with AVX-512 never executes the AVX2 routine. The
// in-place cases write 16×8 tiles inside larger destinations, rows 17
// to 20 elements apart, and compare the whole destination, so a
// routine that writes outside its tile changes the canary values
// around it. The reference is microGo plus the Go write-out.
func TestMicroKernelsAgreeBitwise(t *testing.T) {
	isas := hostISAs()
	t.Logf("host routines: %d of %d (widest %s)", len(isas), len(isaNames), isaNames[cpu.Host])
	rng := matrix.Rand(42)
	for _, kc := range []int{1, 2, 3, 8, 255, 256, 300} {
		ap := make([]float64, kc*MR)
		bp := make([]float64, kc*NR)
		var seed [MR * NR]float64
		randFill(rng, ap)
		randFill(rng, bp)
		randFill(rng, seed[:])
		var want [MR * NR]float64
		for _, i := range isas {
			forceISA(t, i)
			got := seed
			microKernel(ap, bp, &got)
			if i == cpu.Generic {
				want = got
				continue
			}
			for x := range got {
				if math.Float64bits(got[x]) != math.Float64bits(want[x]) {
					t.Fatalf("kc=%d: %s tile[%d][%d] = %v, go routine %v",
						kc, isaNames[i], x/NR, x%NR, got[x], want[x])
				}
			}
		}

		// In-place cases: the tile sits at (2, 3) of a destination with
		// stride 17 + d and canaries on every side.
		dest := func(d int) *matrix.Matrix {
			m := matrix.New(MR+4, 17+d)
			randFill(rng, m.Data)
			return m
		}
		cases := []struct {
			name  string
			seed  bool
			modes []int
			coefs []float64
		}{
			{"seed", true, []int{tileStore}, []float64{1}},
			{"overwrite", false, []int{tileStore}, []float64{1}},
			{"scaled", false, []int{tileSet, tileSet, tileAdd, tileAdd}, []float64{-0.5, 3, -0.5, 3}},
		}
		for _, c := range cases {
			init := make([]*matrix.Matrix, len(c.modes))
			for d := range init {
				init[d] = dest(d)
			}
			// Reference: microGo into the accumulator array, then the Go
			// write-out.
			forceISA(t, cpu.Generic)
			ref := make([]*matrix.Matrix, len(init))
			for d := range ref {
				ref[d] = init[d].Clone()
			}
			var acc [MR * NR]float64
			if c.seed {
				loadTile(&acc, ref[0], 2, 3, MR, NR)
			}
			microKernel(ap, bp, &acc)
			for d, m := range ref {
				switch c.modes[d] {
				case tileStore:
					storeTile(m, 2, 3, MR, NR, &acc)
				case tileSet:
					setScaledTile(m, 2, 3, MR, NR, c.coefs[d], &acc)
				case tileAdd:
					addScaledTile(m, 2, 3, MR, NR, c.coefs[d], &acc)
				}
			}
			for _, i := range isas[1:] {
				forceISA(t, i)
				got := make([]*matrix.Matrix, len(init))
				var outs [maxTileOuts]tileOut
				for d := range got {
					got[d] = init[d].Clone()
					outs[d] = tileAt(got[d], 2, 3, c.coefs[d], c.modes[d])
				}
				microTile(ap, bp, c.seed, outs[:len(got)])
				for d := range got {
					for x, v := range got[d].Data {
						if w := ref[d].Data[x]; math.Float64bits(v) != math.Float64bits(w) {
							t.Fatalf("kc=%d %s: %s out %d [%d][%d] = %v, go %v",
								kc, c.name, isaNames[i], d, x/got[d].Stride, x%got[d].Stride, v, w)
						}
					}
				}
			}
		}
	}
}

// TestFullTileBadViewPanics gives Mul a destination whose storage is
// one element short of its claimed 16×8 shape. Every routine must
// panic rather than write past the slice: the vector routines write
// full tiles through a raw pointer, so tileAt's bounds check is all
// that stands between a bad view and a write out of range.
func TestFullTileBadViewPanics(t *testing.T) {
	a, b := matrix.New(MR, 4), matrix.New(4, NR)
	fill(a, 1)
	fill(b, 2)
	for _, i := range hostISAs() {
		forceISA(t, i)
		c := &matrix.Matrix{Rows: MR, Cols: NR, Stride: NR, Data: make([]float64, MR*NR-1)}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Mul into a short destination did not panic", isaNames[i])
				}
			}()
			Mul(c, a, b, Blocking{}, 1, pool.NewArena(), nil)
		}()
	}
}

// TestFusedChainWitness pins which rounding chain the oracle and every
// routine compute, not only that they agree. With A = [1, 1+2⁻²⁷] and
// B = [−1, 1−2⁻²⁷]ᵀ the second product is 1−2⁻⁵⁴: a fused chain keeps
// it and returns −2⁻⁵⁴, while mul-then-add rounds it to 1 and returns
// 0. So neither MulNaive nor a routine can drift back to mul-then-add
// while still agreeing with the other.
func TestFusedChainWitness(t *testing.T) {
	const e = 1.0 / (1 << 27)
	a := matrix.FromRows([][]float64{{1, 1 + e}})
	b := matrix.FromRows([][]float64{{-1}, {1 - e}})
	want := -e * e
	naive := matrix.New(1, 1)
	matrix.MulNaive(naive, a, b)
	if got := naive.At(0, 0); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("MulNaive = %v, want the fused chain's %v", got, want)
	}
	for _, i := range hostISAs() {
		forceISA(t, i)
		mul, acc := matrix.New(1, 1), matrix.New(1, 1)
		Mul(mul, a, b, Blocking{}, 1, pool.NewArena(), nil)
		accumulate(acc, a, b)
		for name, c := range map[string]*matrix.Matrix{"Mul": mul, "accumulating GEMM": acc} {
			if got := c.At(0, 0); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s under %s = %v, want the fused chain's %v", name, isaNames[i], got, want)
			}
		}
	}
}

// BenchmarkMicroPeak measures the micro-kernel's ceiling: microKernel
// alone on one packed micro-panel pair that stays in L1 (48 KiB at
// kc = 256), under each routine the host supports, with no packing.
// The inplace sub-benchmarks add the vector routines' write-out of a
// full tile to a strided destination (c = coeff·acc into a 64-column
// matrix), the multi-output path's work per tile. GFLOP/s counts
// 2·MR·NR·kc per call.
func BenchmarkMicroPeak(b *testing.B) {
	rng := matrix.Rand(7)
	for _, i := range hostISAs() {
		for _, kc := range []int{64, 128, 256} {
			ap := make([]float64, kc*MR)
			bp := make([]float64, kc*NR)
			randFill(rng, ap)
			randFill(rng, bp)
			flops := float64(2 * MR * NR * kc)
			b.Run(fmt.Sprintf("%s/kc=%d", isaNames[i], kc), func(b *testing.B) {
				forceISA(b, i)
				var acc [MR * NR]float64
				for r := 0; r < b.N; r++ {
					microKernel(ap, bp, &acc)
				}
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
			if i == cpu.Generic {
				continue
			}
			b.Run(fmt.Sprintf("%s/inplace/kc=%d", isaNames[i], kc), func(b *testing.B) {
				forceISA(b, i)
				c := matrix.New(MR, 64)
				outs := [1]tileOut{tileAt(c, 0, 8, 0.5, tileSet)}
				for r := 0; r < b.N; r++ {
					microTile(ap, bp, false, outs[:])
				}
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

// BenchmarkMicroISA times a one-worker 256³ Mul under each routine the
// host supports, so the narrower routines' speed can be checked on a
// host that would otherwise run only the widest.
func BenchmarkMicroISA(b *testing.B) {
	const n = 256
	a, x, c := benchMatrix(n, 1), benchMatrix(n, 2), matrix.New(n, n)
	for _, i := range hostISAs() {
		b.Run(fmt.Sprintf("%s/n=%d", isaNames[i], n), func(b *testing.B) {
			forceISA(b, i)
			ar := pool.NewArena()
			b.SetBytes(2 * n * n * n)
			for r := 0; r < b.N; r++ {
				Mul(c, a, x, Blocking{}, 1, ar, nil)
			}
		})
	}
}
