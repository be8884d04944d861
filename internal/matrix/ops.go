package matrix

import "abmm/internal/parallel"

// opsGrain is the minimum number of rows per parallel chunk for flat
// element-wise kernels; below this the scheduling overhead dominates.
const opsGrain = 64

// seqRows reports whether a row loop should run inline on the calling
// goroutine: either parallelism is disabled or the matrix is too small
// to chunk. Callers use it to skip the parallel.ForChunks closure
// entirely, which keeps the sequential hot path allocation-free (a
// closure passed to ForChunks escapes and is heap-allocated even when
// the loop would run sequentially anyway).
func seqRows(m *Matrix, workers int) bool {
	return workers == 1 || m.Rows <= rowsGrain(m)
}

// Add computes dst = a + b element-wise. dst may alias a or b.
func Add(dst, a, b *Matrix, workers int) {
	if !SameShape(dst, a) || !SameShape(dst, b) {
		panic(ErrShape)
	}
	if seqRows(dst, workers) {
		addRows(dst, a, b, 0, dst.Rows)
		return
	}
	parallel.ForChunks(dst.Rows, workers, rowsGrain(dst), func(lo, hi int) {
		addRows(dst, a, b, lo, hi)
	})
}

func addRows(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		d, x, y := dst.Row(i), a.Row(i), b.Row(i)
		for j := range d {
			d[j] = x[j] + y[j]
		}
	}
}

// Sub computes dst = a - b element-wise. dst may alias a or b.
func Sub(dst, a, b *Matrix, workers int) {
	if !SameShape(dst, a) || !SameShape(dst, b) {
		panic(ErrShape)
	}
	if seqRows(dst, workers) {
		subRows(dst, a, b, 0, dst.Rows)
		return
	}
	parallel.ForChunks(dst.Rows, workers, rowsGrain(dst), func(lo, hi int) {
		subRows(dst, a, b, lo, hi)
	})
}

func subRows(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		d, x, y := dst.Row(i), a.Row(i), b.Row(i)
		for j := range d {
			d[j] = x[j] - y[j]
		}
	}
}

// Scale computes dst = c*a element-wise. dst may alias a.
func Scale(dst, a *Matrix, c float64, workers int) {
	if !SameShape(dst, a) {
		panic(ErrShape)
	}
	if seqRows(dst, workers) {
		scaleRowsRange(dst, a, c, 0, dst.Rows)
		return
	}
	parallel.ForChunks(dst.Rows, workers, rowsGrain(dst), func(lo, hi int) {
		scaleRowsRange(dst, a, c, lo, hi)
	})
}

func scaleRowsRange(dst, a *Matrix, c float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		d, x := dst.Row(i), a.Row(i)
		for j := range d {
			d[j] = c * x[j]
		}
	}
}

// AddScaled computes dst += c*a element-wise (AXPY).
func AddScaled(dst, a *Matrix, c float64, workers int) {
	if !SameShape(dst, a) {
		panic(ErrShape)
	}
	if seqRows(dst, workers) {
		addScaledRows(dst, a, c, 0, dst.Rows)
		return
	}
	parallel.ForChunks(dst.Rows, workers, rowsGrain(dst), func(lo, hi int) {
		addScaledRows(dst, a, c, lo, hi)
	})
}

func addScaledRows(dst, a *Matrix, c float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		d, x := dst.Row(i), a.Row(i)
		for j := range d {
			d[j] += c * x[j]
		}
	}
}

// lcTerm is one nonzero term of a linear combination.
type lcTerm struct {
	c float64
	m *Matrix
}

// LinearCombine computes dst = Σ coeffs[t] * srcs[t] with a single fused
// pass over the output. Zero coefficients are skipped; coefficients of
// ±1 avoid the multiply. This is the workhorse of the encoding (S_r,
// T_r) and decoding (C_k) steps of Equation (2) and of basis
// transformations: fusing the terms reads each source once and writes
// the destination once, which is what keeps the linear phase
// communication-efficient. dst may alias srcs[t] only when t is the
// first term with a nonzero coefficient.
//
//abmm:hotpath
func LinearCombine(dst *Matrix, coeffs []float64, srcs []*Matrix, workers int) {
	if len(coeffs) != len(srcs) {
		panic("matrix: LinearCombine coeffs/srcs length mismatch")
	}
	// The term table lives on the stack for the sequential path; the
	// parallel path copies it to the heap for the worker closure.
	var tbuf [32]lcTerm
	terms := tbuf[:0]
	if len(srcs) > len(tbuf) {
		// Cold spill: no catalog algorithm combines more than 32 terms.
		//abmm:allow hotpath-alloc
		terms = make([]lcTerm, 0, len(srcs))
	}
	for t, c := range coeffs {
		if c == 0 {
			continue
		}
		if !SameShape(dst, srcs[t]) {
			panic(ErrShape)
		}
		// Capacity was reserved above; this append never grows.
		//abmm:allow hotpath-alloc
		terms = append(terms, lcTerm{c, srcs[t]})
	}
	if len(terms) == 0 {
		dst.Zero()
		return
	}
	if seqRows(dst, workers) {
		combineRows(dst, terms, 0, dst.Rows)
		return
	}
	// The parallel path heap-copies the term table for the worker
	// closure; it already pays goroutine dispatch, so this small copy
	// is in budget. The sequential warm path above stays alloc-free.
	//abmm:allow hotpath-alloc
	ht := make([]lcTerm, len(terms))
	copy(ht, terms)
	parallel.ForChunks(dst.Rows, workers, rowsGrain(dst), func(lo, hi int) {
		combineRows(dst, ht, lo, hi)
	})
}

func combineRows(dst *Matrix, terms []lcTerm, lo, hi int) {
	for i := lo; i < hi; i++ {
		d := dst.Row(i)
		// First term initializes the row.
		switch x := terms[0].m.Row(i); terms[0].c {
		case 1:
			copy(d, x)
		case -1:
			for j := range d {
				d[j] = -x[j]
			}
		default:
			c := terms[0].c
			for j := range d {
				d[j] = c * x[j]
			}
		}
		for _, t := range terms[1:] {
			switch x := t.m.Row(i); t.c {
			case 1:
				for j := range d {
					d[j] += x[j]
				}
			case -1:
				for j := range d {
					d[j] -= x[j]
				}
			default:
				c := t.c
				for j := range d {
					d[j] += c * x[j]
				}
			}
		}
	}
}

// ScaleRows computes dst[i,j] = d[i] * a[i,j] (left multiplication by
// diag(d)). dst may alias a.
func ScaleRows(dst, a *Matrix, d []float64, workers int) {
	if !SameShape(dst, a) || len(d) != a.Rows {
		panic(ErrShape)
	}
	parallel.ForChunks(dst.Rows, workers, rowsGrain(dst), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			di, out, in := d[i], dst.Row(i), a.Row(i)
			for j := range out {
				out[j] = di * in[j]
			}
		}
	})
}

// ScaleCols computes dst[i,j] = a[i,j] * d[j] (right multiplication by
// diag(d)). dst may alias a.
func ScaleCols(dst, a *Matrix, d []float64, workers int) {
	if !SameShape(dst, a) || len(d) != a.Cols {
		panic(ErrShape)
	}
	parallel.ForChunks(dst.Rows, workers, rowsGrain(dst), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out, in := dst.Row(i), a.Row(i)
			for j := range out {
				out[j] = in[j] * d[j]
			}
		}
	})
}

func rowsGrain(m *Matrix) int {
	if m.Cols == 0 {
		return opsGrain
	}
	g := opsGrain * 64 / m.Cols // target ~64*opsGrain elements per chunk
	if g < 1 {
		g = 1
	}
	return g
}
