// Package dist implements a distributed-memory execution of recursive
// bilinear matrix multiplication on a simulated message-passing
// machine: P processors run as goroutines exchanging data through
// channels, and the runtime counts every message and word moved — the
// distributed half of the paper's Definition A.1 ("the number of send
// and receive messages between processors ... as a function of the
// number of processors P, the local memory size M, and the matrix
// dimension n").
//
// The schedule is the BFS ("breadth-first") strategy of
// communication-avoiding parallel Strassen (Ballard, Demmel, Holtz,
// Lipshitz, Schwartz): with P = R^d processors, each recursion step
// splits the group of g processors into R subgroups of g/R. Operands
// are distributed so that every processor owns the same 1/g row slice
// of every base block; each processor therefore forms its shares of all
// R encoded operands S_r, T_r without any communication, then ships
// each share to the subgroup owning product r. At group size 1 the
// processor multiplies locally (optionally with further sequential
// recursion); products travel the same tree back up and are decoded
// locally.
package dist

import (
	"fmt"
	"sync"

	"abmm/internal/bilinear"
	"abmm/internal/matrix"
	"abmm/internal/pool"
)

// Stats aggregates the communication incurred by one multiplication.
type Stats struct {
	// Procs is the machine size used.
	Procs int
	// Messages counts all point-to-point sends.
	Messages int64
	// Words is the total float64 values moved between processors.
	Words int64
	// MaxWordsPerProc is the largest per-processor send volume: the
	// bandwidth cost in the communication-cost model.
	MaxWordsPerProc int64
}

// Options configures the distributed run.
type Options struct {
	// LocalLevels is the number of additional sequential recursion
	// steps each processor applies to its leaf subproblem before the
	// classical kernel (0 = classical at the leaves).
	LocalLevels int
	// Workers bounds each processor's local kernel parallelism;
	// defaults to 1 (one goroutine per simulated processor).
	Workers int
}

// Multiply computes a·b on a simulated machine of P = R^d processors
// using d BFS steps of the spec's recursion, and returns the product
// with communication statistics. The spec must be standard-basis and
// the padded base blocks must have at least P rows on both operand
// sides.
func Multiply(spec *bilinear.Spec, a, b *matrix.Matrix, procs int, opt Options) (*matrix.Matrix, Stats, error) {
	if !spec.IsStandard() {
		return nil, Stats{}, fmt.Errorf("dist: %s is not a standard-basis algorithm", spec.Name)
	}
	if a.Cols != b.Rows {
		return nil, Stats{}, matrix.ErrShape
	}
	depth := 0
	for g := 1; g < procs; g *= spec.R {
		depth++
	}
	if procs < 1 || ipow(spec.R, depth) != procs {
		return nil, Stats{}, fmt.Errorf("dist: processor count %d is not a power of R=%d", procs, spec.R)
	}
	levels := depth + opt.LocalLevels
	w := opt.Workers
	if w <= 0 {
		w = 1
	}

	pm, pk, _ := matrix.PadShape(a.Rows, a.Cols, b.Cols, spec.M0, spec.K0, spec.N0, levels)
	hA := pm / ipow(spec.M0, levels) // base block rows, A and C side
	hB := pk / ipow(spec.K0, levels) // base block rows, B side
	if hA%procs != 0 || hB%procs != 0 {
		return nil, Stats{}, fmt.Errorf("dist: base block rows (%d, %d) not divisible by %d processors", hA, hB, procs)
	}
	as := bilinear.ToRecursive(a, spec.M0, spec.K0, levels, w)
	bs := bilinear.ToRecursive(b, spec.K0, spec.N0, levels, w)

	net := newNetwork(procs)
	aParts := scatter(as, hA/procs, procs)
	bParts := scatter(bs, hB/procs, procs)

	cParts := make([]*matrix.Matrix, procs)
	var wg sync.WaitGroup
	wg.Add(procs)
	for p := 0; p < procs; p++ {
		go func(p int) {
			defer wg.Done()
			cParts[p] = bfs(net.proc(p), spec, aParts[p], bParts[p],
				hA/procs, hB/procs, 0, procs, opt.LocalLevels, w)
		}(p)
	}
	wg.Wait()

	cs := gather(cParts, hA/procs, procs)
	c := matrix.New(a.Rows, b.Cols)
	bilinear.FromRecursive(cs, c, spec.M0, spec.N0, levels, w)
	return c, net.stats(), nil
}

// bfs executes the SPMD recursion for one processor. aPart and bPart
// hold, for every base block of the operand, the rows
// [idx·slice, (idx+1)·slice) where idx is the processor's index within
// its current group; aSlice and bSlice are those per-block slice
// thicknesses at the current group size.
func bfs(p *proc, spec *bilinear.Spec, aPart, bPart *matrix.Matrix, aSlice, bSlice, lo, g, localLevels, workers int) *matrix.Matrix {
	if g == 1 {
		c := matrix.New(ipow(spec.DW(), localLevels)*(aPart.Rows/ipow(spec.DU(), localLevels)), bPart.Cols)
		bilinear.NewEngine(spec, bilinear.Options{Workers: workers}, localLevels).
			ExecIntoCancel(c, aPart, bPart, pool.NewArena(), nil, nil)
		return c
	}
	r := spec.R
	sub := g / r
	idx := p.rank - lo   // index within the group
	mySub := idx / sub   // subgroup this processor joins
	subRank := idx % sub // index within the subgroup

	// Encode locally: shares of all R operands S_r and T_r.
	sParts := encodeLocal(spec.CoeffU(), aPart, spec.DU())
	tParts := encodeLocal(spec.CoeffV(), bPart, spec.DV())

	aNew := p.exchangeDown(lo, sub, r, idx, mySub, subRank, sParts, aSlice)
	bNew := p.exchangeDown(lo, sub, r, idx, mySub, subRank, tParts, bSlice)

	cSub := bfs(p, spec, aNew, bNew, aSlice*r, bSlice*r, lo+mySub*sub, sub, localLevels, workers)

	pParts := p.exchangeUp(lo, sub, r, idx, mySub, subRank, cSub, aSlice)
	return decodeLocal(spec.CoeffW(), pParts, spec.DW())
}

// encodeLocal forms the processor's shares of the R combinations
// Σ_i coeff[i,r]·group_i from its local part, whose rows are the d
// aligned block groups in contiguous ranges.
func encodeLocal(coeff *matrix.Matrix, part *matrix.Matrix, d int) []*matrix.Matrix {
	gh := part.Rows / d
	groups := make([]*matrix.Matrix, d)
	for i := range groups {
		groups[i] = part.View(i*gh, 0, gh, part.Cols)
	}
	out := make([]*matrix.Matrix, coeff.Cols)
	cs := make([]float64, d)
	for r := range out {
		for i := 0; i < d; i++ {
			cs[i] = coeff.At(i, r)
		}
		out[r] = matrix.New(gh, part.Cols)
		matrix.LinearCombine(out[r], cs, groups, 1)
	}
	return out
}

// decodeLocal forms the processor's share of the parent output from its
// shares of the R products: group k = Σ_r w[k,r]·parts[r].
func decodeLocal(w *matrix.Matrix, parts []*matrix.Matrix, dw int) *matrix.Matrix {
	gh := parts[0].Rows
	out := matrix.New(dw*gh, parts[0].Cols)
	for k := 0; k < dw; k++ {
		matrix.LinearCombine(out.View(k*gh, 0, gh, out.Cols), w.Row(k), parts, 1)
	}
	return out
}

// exchangeDown redistributes the encoded shares: the share of product s
// goes to the processor of subgroup s whose (thicker) child slice
// covers this processor's rows, and this processor assembles its child
// part for product mySub from the r parents whose slices it covers.
func (p *proc) exchangeDown(lo, sub, r, idx, mySub, subRank int, parts []*matrix.Matrix, slice int) *matrix.Matrix {
	q := idx / r // my child rank within my subgroup
	var selfData *matrix.Matrix
	for s := 0; s < r; s++ {
		dst := lo + s*sub + q
		if dst == p.rank {
			selfData = parts[s]
			continue
		}
		p.send(dst, flatten(parts[s]))
	}
	// Assemble the child part: for each base block of the subproblem,
	// child slice rows m·slice..(m+1)·slice come from parent
	// subRank·r + m.
	numBlocks := parts[mySub].Rows / slice
	cols := parts[mySub].Cols
	out := matrix.New(numBlocks*slice*r, cols)
	for m := 0; m < r; m++ {
		src := lo + subRank*r + m
		var data *matrix.Matrix
		if src == p.rank {
			data = selfData
		} else {
			data = matrix.FromSlice(numBlocks*slice, cols, p.recv(src))
		}
		for beta := 0; beta < numBlocks; beta++ {
			matrix.CopyInto(
				out.View(beta*slice*r+m*slice, 0, slice, cols),
				data.View(beta*slice, 0, slice, cols))
		}
	}
	return out
}

// exchangeUp is the inverse redistribution for the product: the child
// splits its thick slices back into r parent slices and ships slice m
// of every block to parent subRank·r + m, while collecting its parent
// slices of all R products.
func (p *proc) exchangeUp(lo, sub, r, idx, mySub, subRank int, cPart *matrix.Matrix, slice int) []*matrix.Matrix {
	q := idx / r
	numBlocks := cPart.Rows / (slice * r)
	cols := cPart.Cols
	var selfData *matrix.Matrix
	for m := 0; m < r; m++ {
		dst := lo + subRank*r + m
		piece := matrix.New(numBlocks*slice, cols)
		for beta := 0; beta < numBlocks; beta++ {
			matrix.CopyInto(
				piece.View(beta*slice, 0, slice, cols),
				cPart.View(beta*slice*r+m*slice, 0, slice, cols))
		}
		if dst == p.rank {
			selfData = piece
			continue
		}
		p.send(dst, piece.Data)
	}
	parts := make([]*matrix.Matrix, r)
	for s := 0; s < r; s++ {
		src := lo + s*sub + q
		if src == p.rank {
			parts[s] = selfData
			continue
		}
		parts[s] = matrix.FromSlice(numBlocks*slice, cols, p.recv(src))
	}
	return parts
}

// scatter splits a stacked operand into per-processor parts: processor
// t gets rows [t·slice, (t+1)·slice) of every base block.
func scatter(m *matrix.Matrix, slice, procs int) []*matrix.Matrix {
	numBlocks := m.Rows / (slice * procs)
	out := make([]*matrix.Matrix, procs)
	for t := 0; t < procs; t++ {
		part := matrix.New(numBlocks*slice, m.Cols)
		for beta := 0; beta < numBlocks; beta++ {
			matrix.CopyInto(
				part.View(beta*slice, 0, slice, m.Cols),
				m.View(beta*slice*procs+t*slice, 0, slice, m.Cols))
		}
		out[t] = part
	}
	return out
}

// gather reassembles the full stacked output from per-processor parts.
func gather(parts []*matrix.Matrix, slice, procs int) *matrix.Matrix {
	numBlocks := parts[0].Rows / slice
	cols := parts[0].Cols
	out := matrix.New(numBlocks*slice*procs, cols)
	for t := 0; t < procs; t++ {
		for beta := 0; beta < numBlocks; beta++ {
			matrix.CopyInto(
				out.View(beta*slice*procs+t*slice, 0, slice, cols),
				parts[t].View(beta*slice, 0, slice, cols))
		}
	}
	return out
}

// flatten returns the contiguous data of a matrix (copying if strided).
func flatten(m *matrix.Matrix) []float64 {
	if m.IsContiguous() {
		return m.Data[:m.Rows*m.Cols]
	}
	return m.Clone().Data
}

func ipow(b, e int) int {
	v := 1
	for ; e > 0; e-- {
		v *= b
	}
	return v
}
