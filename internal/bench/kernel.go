package bench

// Kernel-level cells: raw single-thread base-case throughput, outside
// the recursion, padding, and basis machinery. Two variants per size —
// the packed register-tiled kernel (internal/kernel, the recursion base
// case) and the cache-blocked strided loop (internal/matrix, the
// portable reference) — so the trajectory records the packed kernel's
// advantage, not just end-to-end numbers that mix it with transform
// overhead.

import (
	"runtime"
	"time"

	"abmm/internal/kernel"
	"abmm/internal/matrix"
	"abmm/internal/pool"
)

// DefaultKernelSizes are the base-case sizes the default matrix
// measures: one L2-resident size, one memory-resident size, and one
// far beyond cache.
func DefaultKernelSizes() []int { return []int{256, 1024, 4096} }

// blockedKernelCap bounds the sizes at which the blocked reference
// loop is also measured. Above it a single repetition costs minutes of
// single-thread wall time only to restate the same multiple-×
// deficit, so large sizes record the packed kernel alone.
const blockedKernelCap = 1024

// runKernelCells measures the kernel variants at each size with the
// shared Cell schema: Levels 0 (no recursion) and Workers 1 (the
// kernel's single-thread contract is what the 1.5× target is against).
// Error fields stay zero: these cells time the base case, not its
// accuracy. The packed kernel is bitwise equal to the naive loop (the
// kernel tests pin it); the blocked loop's c += a*b is fused or not as
// the compiler chooses, so on amd64 it differs in low-order bits.
func runKernelCells(sizes []int, reps int) []Cell {
	var cells []Cell
	for _, n := range sizes {
		if n <= 0 {
			continue
		}
		bl := kernel.DefaultBlocking()
		cells = append(cells, runKernelCell("kernel-packed", n, reps, func(c, a, b *matrix.Matrix) {
			kernel.Mul(c, a, b, bl, 1, pool.Global, nil)
		}))
		if n <= blockedKernelCap {
			cells = append(cells, runKernelCell("kernel-blocked", n, reps, func(c, a, b *matrix.Matrix) {
				matrix.Mul(c, a, b, 1)
			}))
		}
	}
	return cells
}

// runKernelCell times one n×n×n base-case multiply: two warmups (the
// first draws the packed-panel buffers from the global pool, so the
// timed repetitions measure the steady state), then best-of-reps with
// allocations averaged over the timed window.
func runKernelCell(name string, n, reps int, mul func(c, a, b *matrix.Matrix)) Cell {
	if reps < 1 {
		reps = 1
	}
	a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	rng := matrix.Rand(uint64(n)*7919 + 17)
	a.FillUniform(rng, -1, 1)
	b.FillUniform(rng, -1, 1)
	mul(c, a, b)
	mul(c, a, b)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		mul(c, a, b)
		if d := time.Since(start); d < best {
			best = d
		}
	}
	runtime.ReadMemStats(&after)

	flops := 2 * float64(n) * float64(n) * float64(n)
	return Cell{
		Alg: name, N: n, Levels: 0, Workers: 1,
		NsPerOp:     float64(best.Nanoseconds()),
		GFLOPS:      flops / best.Seconds() / 1e9,
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(reps),
		// P99Seconds stays zero: best-of-reps timing keeps no latency
		// distribution to take a quantile of.
	}
}
