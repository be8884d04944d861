// Package kernel is the packed-panel classical base case of the
// library: a cache-blocked (mc/kc/nc) GEMM with a register-tiled MR×NR
// micro-kernel, in the BLIS mold. Operand blocks are copied into
// contiguous micro-panels once per cache block and the unrolled
// micro-kernel streams them with unit stride, which is what lifts the
// base case past the strided blocked loop in internal/matrix.
//
// The package's defining feature is the fused contract: both operands
// are given as lists of (coefficient, source) terms and the destination
// as a list of (coefficient, matrix, accumulate) outputs, so the
// bilinear encode (S_r = Σ u_ir·A_i, T_r = Σ v_ir·B_i) is formed while
// packing and the decode (C_k += w_kr·P_r) happens in the tile
// write-out — the separate full-matrix linear-combination sweeps at the
// recursion cutoff disappear into memory passes the kernel was already
// making. See DESIGN.md §2e for the contract and PAPERS.md
// ("Implementing Strassen's Algorithm with BLIS") for the lineage.
//
// The single-output unscaled path (Mul, MulAdd) accumulates directly
// into the destination tile, one fused multiply-add per k in ascending
// order, and is bitwise identical to matrix.MulNaive, which computes
// the same chain with math.FMA; the results are the same on every
// architecture. The multi-output scaled path rounds once more per kc
// block at the write-out, which changes low-order bits but none of the
// error analysis (each output element still receives ⌈K/kc⌉ rounded
// partial sums).
package kernel

import (
	"fmt"
	"time"

	"abmm/internal/matrix"
	"abmm/internal/obs"
	"abmm/internal/parallel"
	"abmm/internal/pool"
)

// Blocking carries the cache-blocking parameters of the packed kernel:
// the product is computed in nc-column outer panels (pb holds kc×nc of
// packed B), kc-deep rank slices, and mc-row blocks (pa holds mc×kc of
// packed A). The zero value selects DefaultBlocking.
type Blocking struct {
	MC, KC, NC int
}

// DefaultBlocking returns the portable default parameters. kc = 256:
// one 16×256 A micro-panel (32 KiB) plus one 256×8 B micro-panel
// (16 KiB) is 48 KiB, the whole L1d of the 2-core Xeon the tile was
// sized on. kc is not a free tuning knob: the multi-output write-out
// rounds once per kc slice, so kc fixes the output bits and changing
// it changes results. mc = 128 keeps the packed A block (256 KiB)
// within a conservative L2 share, and nc = 512 keeps the packed B panel
// (1 MiB) in L2/L3 across the whole mc sweep; both are whole 16×8
// register tiles.
func DefaultBlocking() Blocking { return Blocking{MC: 128, KC: 256, NC: 512} }

// normalized fills zero fields from DefaultBlocking and rounds MC/NC up
// to whole micro-tiles so panel arithmetic never splits a register
// tile.
func (b Blocking) normalized() Blocking {
	d := DefaultBlocking()
	if b.MC <= 0 {
		b.MC = d.MC
	}
	if b.KC <= 0 {
		b.KC = d.KC
	}
	if b.NC <= 0 {
		b.NC = d.NC
	}
	b.MC = roundUp(b.MC, MR)
	b.NC = roundUp(b.NC, NR)
	return b
}

// Label renders the normalized blocking as "mcxkcxnc" — the kernel
// identity component of a plan key, stable across zero-value and
// explicit-default configurations because normalization runs first.
func (b Blocking) Label() string {
	b = b.normalized()
	return fmt.Sprintf("%dx%dx%d", b.MC, b.KC, b.NC)
}

// PanelBytes returns the packed-panel workspace in bytes that one
// sequential GEMM of shape m×k×n draws from its allocator: one packed
// B panel (kc×nc) plus one packed A block (mc×kc), before the
// allocator's power-of-two size-class rounding. Parallel execution
// draws one A block per worker chunk instead of one total. Plans
// surface this so workspace accounting covers the kernel's share.
func (b Blocking) PanelBytes(m, k, n int) int64 {
	if m <= 0 || k <= 0 || n <= 0 {
		return 0
	}
	b = b.normalized()
	kc := min(b.KC, k)
	nc := roundUp(min(b.NC, n), NR)
	mc := roundUp(min(b.MC, m), MR)
	return 8 * int64(kc) * int64(nc+mc)
}

// Out is one destination of a fused write-out: the product P receives
// no storage of its own; instead each Out gets Coeff·P written into M —
// overwriting it when Accum is false, accumulating (+=) when true.
type Out struct {
	Coeff float64
	M     *matrix.Matrix
	Accum bool
}

// Mul computes c = a·b through the packed kernel. c must not alias a or
// b. Every element is the chain c = fma(a_ik, b_kj, c) over ascending
// k from zero, so the result is bitwise identical to matrix.MulNaive.
// al supplies the panel workspace (pool.Global when no arena is in
// play); rec, when non-nil, receives nested PhasePack/PhaseKernel
// spans.
func Mul(c, a, b *matrix.Matrix, bl Blocking, workers int, al pool.Allocator, rec obs.Recorder) {
	outs := [1]Out{{Coeff: 1, M: c}}
	at := [1]Term{{Coeff: 1, M: a}}
	bt := [1]Term{{Coeff: 1, M: b}}
	GEMM(outs[:], at[:], bt[:], bl, workers, al, rec)
}

// MulAdd computes c += a·b through the packed kernel; the accumulation
// chain starts from c's prior value and applies one fused multiply-add
// per k in ascending order, c = fma(a_ik, b_kj, c), so it too is
// bitwise reproducible. c must not alias a or b.
func MulAdd(c, a, b *matrix.Matrix, bl Blocking, workers int, al pool.Allocator, rec obs.Recorder) {
	outs := [1]Out{{Coeff: 1, M: c, Accum: true}}
	at := [1]Term{{Coeff: 1, M: a}}
	bt := [1]Term{{Coeff: 1, M: b}}
	GEMM(outs[:], at[:], bt[:], bl, workers, al, rec)
}

// GEMM is the fused packed-panel product: it computes
//
//	P = (Σ aTerms) · (Σ bTerms)
//
// and delivers Coeff·P to every out (overwrite or accumulate per
// out.Accum) without ever materializing P — partial tiles are scattered
// to the outputs at each kc step. All aTerms must share one m×k shape,
// all bTerms one k×n shape, and all outs m×n; no out may alias any
// term. Zero-coefficient terms must be filtered by the caller. With no
// terms (or k == 0) the product is zero: accumulating outs are left
// untouched and overwriting outs are zeroed.
//
// Parallel execution (workers > 1 and more than one mc block) first
// packs each kc×nc B panel with all workers, each filling a disjoint
// range of its NR-column micro-panels, then splits the mc-row blocks
// across workers; output rows are disjoint so no synchronization is
// needed beyond the wait between the two steps. When rec is non-nil the
// call reports one PhasePack and one PhaseKernel span that sum to the
// call's wall time. PhasePack is the wall time of the pack step on both
// paths: every A and B pack when sequential, the shared B pack when
// parallel (there each worker packs its own A blocks while the others
// compute, so that time counts as kernel time).
//
//abmm:hotpath
func GEMM(outs []Out, aTerms, bTerms []Term, bl Blocking, workers int, al pool.Allocator, rec obs.Recorder) {
	m, kk, n := gemmShape(outs, aTerms, bTerms)
	if m == 0 || n == 0 {
		return
	}
	if kk == 0 || len(aTerms) == 0 || len(bTerms) == 0 {
		for _, o := range outs {
			if !o.Accum {
				o.M.Zero()
			}
		}
		return
	}
	bl = bl.normalized()
	// direct: a single unscaled output lets the micro-kernel seed its
	// accumulators from the destination tile and store straight back, so
	// every element is one ascending-k fused chain (bitwise == naive).
	direct := len(outs) == 1 && outs[0].Coeff == 1

	timed := rec != nil
	var start, tp time.Time
	var packDur time.Duration
	if timed {
		start = time.Now()
	}

	kcMax := min(bl.KC, kk)
	ncMax := roundUp(min(bl.NC, n), NR)
	mcMax := roundUp(min(bl.MC, m), MR)
	blocks := (m + bl.MC - 1) / bl.MC
	pb := al.Floats(kcMax * ncMax)
	for jc := 0; jc < n; jc += bl.NC {
		nc := min(bl.NC, n-jc)
		panels := (nc + NR - 1) / NR
		for pc := 0; pc < kk; pc += bl.KC {
			kc := min(bl.KC, kk-pc)
			first := pc == 0
			if workers <= 1 || blocks == 1 {
				if timed {
					tp = time.Now()
				}
				packB(pb, bTerms, pc, kc, jc, nc, 0, panels)
				if timed {
					packDur += time.Since(tp)
				}
				pa := al.Floats(mcMax * kc)
				for ib := 0; ib < blocks; ib++ {
					i0 := ib * bl.MC
					blk := blockArgs{i0: i0, mc: min(bl.MC, m-i0), pc: pc, kc: kc, jc: jc, nc: nc, first: first, direct: direct}
					if timed {
						tp = time.Now()
					}
					packA(pa[:roundUp(blk.mc, MR)*kc], aTerms, i0, blk.mc, pc, kc)
					if timed {
						packDur += time.Since(tp)
					}
					computeBlock(outs, pa, pb, blk)
				}
				al.PutFloats(pa)
				continue
			}
			// Heap copies so the dispatch closures never capture the
			// caller's slices: sequential callers keep their term and
			// output tables on the stack, and only the parallel branch
			// pays. Cold for the warm-path guarantee (workers == 1).
			//abmm:allow hotpath-alloc
			houts := append([]Out(nil), outs...)
			// Same heap-copy discipline for the A-side term table.
			//abmm:allow hotpath-alloc
			haT := append([]Term(nil), aTerms...)
			// And for the B-side term table, which the workers read
			// while packing B.
			//abmm:allow hotpath-alloc
			hbT := append([]Term(nil), bTerms...)
			mc, pcc, kcc, jcc, ncc := bl.MC, pc, kc, jc, nc
			if timed {
				tp = time.Now()
			}
			parallel.ForChunks(panels, workers, 1, func(lo, hi int) {
				packB(pb, hbT, pcc, kcc, jcc, ncc, lo, hi)
			})
			if timed {
				packDur += time.Since(tp)
			}
			parallel.ForChunks(blocks, workers, 1, func(lo, hi int) {
				pa := al.Floats(mcMax * kcc)
				for ib := lo; ib < hi; ib++ {
					i0 := ib * mc
					blk := blockArgs{i0: i0, mc: min(mc, m-i0), pc: pcc, kc: kcc, jc: jcc, nc: ncc, first: first, direct: direct}
					packA(pa[:roundUp(blk.mc, MR)*kcc], haT, i0, blk.mc, pcc, kcc)
					computeBlock(houts, pa, pb, blk)
				}
				al.PutFloats(pa)
			})
		}
	}
	al.PutFloats(pb)
	if timed {
		total := time.Since(start)
		rec.PhaseDone(obs.PhasePack, packDur)
		rec.PhaseDone(obs.PhaseKernel, total-packDur)
	}
}

// blockArgs carries one mc-block's coordinates through computeBlock:
// rows [i0, i0+mc), rank slice [pc, pc+kc), columns [jc, jc+nc); first
// marks the kc slice that initializes non-accumulating outputs.
type blockArgs struct {
	i0, mc, pc, kc, jc, nc int
	first, direct          bool
}

// computeBlock runs the register-tile sweep of one packed A block
// against the current packed B panel, writing tiles to the outputs.
//
//abmm:hotpath
func computeBlock(outs []Out, pa, pb []float64, g blockArgs) {
	mPanels := (g.mc + MR - 1) / MR
	nPanels := (g.nc + NR - 1) / NR
	var acc [MR * NR]float64
	for jp := 0; jp < nPanels; jp++ {
		bp := pb[jp*NR*g.kc : (jp+1)*NR*g.kc]
		j := g.jc + jp*NR
		nr := min(NR, g.jc+g.nc-j)
		for ip := 0; ip < mPanels; ip++ {
			ap := pa[ip*MR*g.kc : (ip+1)*MR*g.kc]
			i := g.i0 + ip*MR
			mr := min(MR, g.i0+g.mc-i)
			if g.direct {
				if g.first && !outs[0].Accum {
					acc = [MR * NR]float64{}
				} else {
					loadTile(&acc, outs[0].M, i, j, mr, nr)
				}
				microKernel(ap, bp, &acc)
				storeTile(outs[0].M, i, j, mr, nr, &acc)
				continue
			}
			acc = [MR * NR]float64{}
			microKernel(ap, bp, &acc)
			for _, out := range outs {
				if g.first && !out.Accum {
					setScaledTile(out.M, i, j, mr, nr, out.Coeff, &acc)
				} else {
					addScaledTile(out.M, i, j, mr, nr, out.Coeff, &acc)
				}
			}
		}
	}
}

// loadTile fills acc from the mr×nr tile of m at (i0, j0), zeroing the
// masked lanes so padded panel rows/columns accumulate only zeros.
//
//abmm:hotpath
func loadTile(acc *[MR * NR]float64, m *matrix.Matrix, i0, j0, mr, nr int) {
	if mr < MR || nr < NR {
		*acc = [MR * NR]float64{}
	}
	for r := 0; r < mr; r++ {
		row := m.Data[(i0+r)*m.Stride+j0 : (i0+r)*m.Stride+j0+nr]
		for x, v := range row {
			acc[r*NR+x] = v
		}
	}
}

// storeTile writes the valid mr×nr lanes of acc back to m at (i0, j0).
//
//abmm:hotpath
func storeTile(m *matrix.Matrix, i0, j0, mr, nr int, acc *[MR * NR]float64) {
	for r := 0; r < mr; r++ {
		row := m.Data[(i0+r)*m.Stride+j0 : (i0+r)*m.Stride+j0+nr]
		for x := range row {
			row[x] = acc[r*NR+x]
		}
	}
}

// setScaledTile writes coeff·acc over the mr×nr tile of m at (i0, j0).
//
//abmm:hotpath
func setScaledTile(m *matrix.Matrix, i0, j0, mr, nr int, coeff float64, acc *[MR * NR]float64) {
	for r := 0; r < mr; r++ {
		row := m.Data[(i0+r)*m.Stride+j0 : (i0+r)*m.Stride+j0+nr]
		for x := range row {
			row[x] = coeff * acc[r*NR+x]
		}
	}
}

// addScaledTile accumulates coeff·acc into the mr×nr tile of m.
//
//abmm:hotpath
func addScaledTile(m *matrix.Matrix, i0, j0, mr, nr int, coeff float64, acc *[MR * NR]float64) {
	for r := 0; r < mr; r++ {
		row := m.Data[(i0+r)*m.Stride+j0 : (i0+r)*m.Stride+j0+nr]
		for x := range row {
			row[x] += coeff * acc[r*NR+x]
		}
	}
}

// gemmShape validates that every term and output agrees on the m×k,
// k×n, m×n shapes and returns them. Shapes anchor on the first output
// (GEMM without outputs has nothing to do and m = n = 0 short-circuits
// it).
func gemmShape(outs []Out, aTerms, bTerms []Term) (m, k, n int) {
	if len(outs) == 0 {
		return 0, 0, 0
	}
	m, n = outs[0].M.Rows, outs[0].M.Cols
	if len(aTerms) > 0 {
		k = aTerms[0].M.Cols
	} else if len(bTerms) > 0 {
		k = bTerms[0].M.Rows
	}
	for _, t := range aTerms {
		if t.M.Rows != m || t.M.Cols != k {
			panic(matrix.ErrShape)
		}
	}
	for _, t := range bTerms {
		if t.M.Rows != k || t.M.Cols != n {
			panic(matrix.ErrShape)
		}
	}
	for _, o := range outs {
		if o.M.Rows != m || o.M.Cols != n {
			panic(matrix.ErrShape)
		}
	}
	return m, k, n
}

func roundUp(x, to int) int { return (x + to - 1) / to * to }
