package kernel

import (
	"fmt"
	"math"
	"testing"

	"abmm/internal/matrix"
	"abmm/internal/pool"
)

var isaNames = [...]string{isaGo: "go", isaAVX2: "avx2", isaAVX512: "avx512"}

// hostISAs lists the micro-kernel routines this host runs, narrowest
// first. Each routine's CPU requirement includes the previous one's.
func hostISAs() []isa {
	var out []isa
	for i := isaGo; i <= hostISA; i++ {
		out = append(out, i)
	}
	return out
}

// forceISA makes microKernel run routine i until the test ends.
func forceISA(tb testing.TB, i isa) {
	prev := useISA
	useISA = i
	tb.Cleanup(func() { useISA = prev })
}

// TestMicroKernelsAgreeBitwise runs every routine the host supports on
// the same packed panels and seeded accumulators and requires tiles
// equal to the bit. Without it, a host with AVX-512 never executes the
// AVX2 routine.
func TestMicroKernelsAgreeBitwise(t *testing.T) {
	isas := hostISAs()
	t.Logf("host routines: %d of %d (widest %s)", len(isas), len(isaNames), isaNames[hostISA])
	rng := matrix.Rand(42)
	for _, kc := range []int{1, 2, 3, 8, 255, 256, 300} {
		ap := make([]float64, kc*MR)
		bp := make([]float64, kc*NR)
		var seed [MR * NR]float64
		for _, s := range [][]float64{ap, bp, seed[:]} {
			for i := range s {
				s[i] = rng.Float64()*2 - 1
			}
		}
		var want [MR * NR]float64
		for _, i := range isas {
			forceISA(t, i)
			got := seed
			microKernel(ap, bp, &got)
			if i == isaGo {
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
		mul, mulAdd := matrix.New(1, 1), matrix.New(1, 1)
		Mul(mul, a, b, Blocking{}, 1, pool.NewArena(), nil)
		MulAdd(mulAdd, a, b, Blocking{}, 1, pool.NewArena(), nil)
		for name, c := range map[string]*matrix.Matrix{"Mul": mul, "MulAdd": mulAdd} {
			if got := c.At(0, 0); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s under %s = %v, want the fused chain's %v", name, isaNames[i], got, want)
			}
		}
	}
}

// BenchmarkMicroPeak measures the micro-kernel's ceiling: microKernel
// alone on one packed micro-panel pair that stays in L1 (48 KiB at
// kc = 256), under each routine the host supports, with no packing or
// tile write-out. GFLOP/s counts 2·MR·NR·kc per call.
func BenchmarkMicroPeak(b *testing.B) {
	rng := matrix.Rand(7)
	for _, i := range hostISAs() {
		for _, kc := range []int{64, 128, 256} {
			ap := make([]float64, kc*MR)
			bp := make([]float64, kc*NR)
			for _, s := range [][]float64{ap, bp} {
				for x := range s {
					s[x] = rng.Float64()*2 - 1
				}
			}
			b.Run(fmt.Sprintf("%s/kc=%d", isaNames[i], kc), func(b *testing.B) {
				forceISA(b, i)
				var acc [MR * NR]float64
				for r := 0; r < b.N; r++ {
					microKernel(ap, bp, &acc)
				}
				flops := float64(2*MR*NR*kc) * float64(b.N)
				b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
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
