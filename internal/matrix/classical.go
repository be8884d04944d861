package matrix

import (
	"math"

	"abmm/internal/parallel"
)

// Blocking parameters for the classical kernel. The micro-tile is sized
// so that a block of A (mc×kc) and a panel of B (kc×nc) fit in L2/L1
// cache on typical hardware; they are deliberately conservative and
// portable.
const (
	blockM = 64
	blockK = 256
	blockN = 512
)

// Mul computes c = a·b with the cache-blocked classical loop: zero the
// destination, then accumulate. c must not alias a or b. Its inner
// c += a*b is fused or not as the compiler chooses for the target, so
// it agrees with MulNaive only to rounding. The "DGEMM" baseline that
// runtimes are normalized against (the paper uses Intel MKL; see
// DESIGN.md §4 for the substitution) is the packed-panel kernel in
// internal/kernel, the recursion base case of the fast algorithms,
// which this package cannot reach (it would invert the import DAG).
//
//abmm:hotpath
func Mul(c, a, b *Matrix, workers int) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(ErrShape)
	}
	c.Zero()
	MulAdd(c, a, b, workers)
}

// MulAdd computes c += a·b. c must not alias a or b.
//
//abmm:hotpath
func MulAdd(c, a, b *Matrix, workers int) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(ErrShape)
	}
	m, k, n := a.Rows, a.Cols, b.Cols
	if m == 0 || n == 0 || k == 0 {
		return
	}
	nb := (m + blockM - 1) / blockM
	if workers == 1 || nb == 1 {
		mulBlocks(c, a, b, 0, nb)
		return
	}
	// Parallelize over row blocks of C: disjoint outputs, no locking.
	parallel.ForChunks(nb, workers, 1, func(lo, hi int) {
		mulBlocks(c, a, b, lo, hi)
	})
}

// mulBlocks is the one shared tile routine of the classical kernel: it
// accumulates row blocks [lo, hi) of the blocked (i-block, k-block,
// j-block) schedule, with both the sequential and the parallel paths of
// MulAdd funneling into it. Within a tile the loop order (i, k, j)
// streams B rows and C rows with unit stride, so the inner loop is a
// multiply-add over contiguous memory.
func mulBlocks(c, a, b *Matrix, lo, hi int) {
	m, k, n := a.Rows, a.Cols, b.Cols
	for ib := lo; ib < hi; ib++ {
		i0 := ib * blockM
		i1 := min(i0+blockM, m)
		for k0 := 0; k0 < k; k0 += blockK {
			k1 := min(k0+blockK, k)
			for j0 := 0; j0 < n; j0 += blockN {
				j1 := min(j0+blockN, n)
				for i := i0; i < i1; i++ {
					crow := c.Data[i*c.Stride+j0 : i*c.Stride+j1]
					arow := a.Data[i*a.Stride+k0 : i*a.Stride+k1]
					for kk, av := range arow {
						if av == 0 {
							continue
						}
						brow := b.Data[(k0+kk)*b.Stride+j0 : (k0+kk)*b.Stride+j1]
						for j, bv := range brow {
							crow[j] += av * bv
						}
					}
				}
			}
		}
	}
}

// MulNaive is the textbook triple loop, used only as an independent
// oracle in tests. Each element is the chain s = fma(a_ik, b_kj, s) in
// ascending k, one rounding per step: the chain every micro-kernel
// routine of the packed kernel computes, which the oracle pins bitwise.
// It calls math.FMA rather than writing s += a*b because the compiler
// may fuse the latter or not, depending on the target (arm64 does,
// amd64 does not); math.FMA gives the same bits on every architecture.
func MulNaive(c, a, b *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(ErrShape)
	}
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s = math.FMA(a.At(i, k), b.At(k, j), s)
			}
			c.Set(i, j, s)
		}
	}
}
