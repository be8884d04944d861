package matrix

import (
	"abmm/internal/cpu"
	"abmm/internal/parallel"
)

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

// useISA picks the vector routines combine2 and axpy run. It starts as
// cpu.Host; tests lower it to check the narrower routines against the
// Go loops on the same host. Library code never writes it.
var useISA = cpu.Host

// vecLen returns the prefix of an n-element row the vector routines
// cover: n rounded down to the vector width, or 0 without one.
func vecLen(n int) int {
	switch useISA {
	case cpu.AVX512:
		return n &^ 7
	case cpu.AVX2:
		return n &^ 3
	}
	return 0
}

// combine2 sets d[j] = c0·x[j] + c1·y[j] (two rounded products, then
// their rounded sum) over the vector-width prefix of d and returns its
// length; the caller finishes the rest in Go. It touches the prefix's
// last element in d, x and y first, so a row shorter than d panics
// instead of the routine reading or writing out of range.
func combine2(d, x, y []float64, c0, c1 float64) int {
	n := vecLen(len(d))
	if n == 0 {
		return 0
	}
	_, _, _ = d[n-1], x[n-1], y[n-1]
	if useISA == cpu.AVX512 {
		combine2AVX512(&d[0], &x[0], &y[0], n, c0, c1)
	} else {
		combine2AVX2(&d[0], &x[0], &y[0], n, c0, c1)
	}
	return n
}

// axpy sets d[j] += c·x[j] (a rounded product, then a rounded sum) over
// the vector-width prefix of d and returns its length, with combine2's
// bounds discipline.
func axpy(d, x []float64, c float64) int {
	n := vecLen(len(d))
	if n == 0 {
		return 0
	}
	_, _ = d[n-1], x[n-1]
	if useISA == cpu.AVX512 {
		axpyAVX512(&d[0], &x[0], n, c)
	} else {
		axpyAVX2(&d[0], &x[0], n, c)
	}
	return n
}

// lcTerm is one nonzero term of a linear combination.
type lcTerm struct {
	c float64
	m *Matrix
}

// LinearCombine computes dst = Σ coeffs[t] * srcs[t], skipping zero
// coefficients. This is the workhorse of the encoding (S_r, T_r) and
// decoding (C_k) steps of Equation (2) and of basis transformations.
// Each element takes the same operations in term order: the first term
// sets it (a copy for 1, a negation for −1, else a rounded product) and
// every later term adds its rounded product (a plain add or subtract
// for ±1). Span by span (each row, or all rows at once when dst and
// every source are contiguous), and within a span piece by piece
// (combinePiece elements), the host's vector routines apply the first
// two terms in one pass over the piece's vector-width prefix and every
// later term in one more pass; Go applies the terms to the rest of the
// piece, one pass each. Products by ±1 are exact, so both give the same
// bits.
// dst may alias srcs[t] only when t is the first term with a nonzero
// coefficient.
//
//abmm:hotpath
func LinearCombine(dst *Matrix, coeffs []float64, srcs []*Matrix, workers int) {
	if len(coeffs) != len(srcs) {
		panic("matrix: LinearCombine coeffs/srcs length mismatch")
	}
	// The term table lives on the stack for the sequential path; the
	// parallel path copies it to the heap for the worker closure. It
	// holds the nonzero terms only: a decode row has one coefficient per
	// product, and few of them are nonzero.
	nz := 0
	for _, c := range coeffs {
		if c != 0 {
			nz++
		}
	}
	var tbuf [32]lcTerm
	terms := tbuf[:0]
	if nz > len(tbuf) {
		// Cold spill: no catalog algorithm combines more than 32 terms.
		//abmm:allow hotpath-alloc
		terms = make([]lcTerm, 0, nz)
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

// combinePiece is how many elements of a span combineRows carries
// through every term before it moves on: 8 KiB of destination, which
// stays in L1 while the terms stream past it, so a k-term combination
// reads each source once and writes the destination once even when its
// span covers whole blocks. It is a multiple of every vector width, so
// only a span's last piece leaves a tail to the Go loops.
const combinePiece = 1024

func combineRows(dst *Matrix, terms []lcTerm, lo, hi int) {
	flat := dst.IsContiguous()
	for _, t := range terms {
		flat = flat && t.m.IsContiguous()
	}
	end, n := rowSpans(lo, hi, dst.Cols, flat)
	for i := lo; i < end; i++ {
		for p := 0; p < n; p += combinePiece {
			combinePieceAt(dst, terms, i, p, min(p+combinePiece, n))
		}
	}
}

// combinePieceAt applies every term to elements [p, q) of the spans
// that start at row i.
func combinePieceAt(dst *Matrix, terms []lcTerm, i, p, q int) {
	d := span(dst, i, p, q)
	v := 0
	if len(terms) > 1 {
		v = combine2(d, span(terms[0].m, i, p, q), span(terms[1].m, i, p, q), terms[0].c, terms[1].c)
		for _, t := range terms[2:] {
			axpy(d[:v], span(t.m, i, p, q), t.c)
		}
	}
	d = d[v:]
	// First term initializes the rest of the piece.
	switch x := span(terms[0].m, i, p, q)[v:]; terms[0].c {
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
		switch x := span(t.m, i, p, q)[v:]; t.c {
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

// rowSpans returns how the row loops walk rows [lo, hi) of operands
// with cols columns: rows [lo, end), each a span of n elements from its
// first. When every operand is contiguous (flat), the rows are
// adjacent in all of them and form one span of (hi−lo)·cols elements,
// so the vector routines run over it in one call and Go finishes only
// its tail; otherwise each row is its own span. Every element takes the
// same operations either way.
func rowSpans(lo, hi, cols int, flat bool) (end, n int) {
	if flat && lo < hi {
		return lo + 1, (hi - lo) * cols
	}
	return hi, cols
}

// span returns elements [p, q) of m counted from the first element of
// row i: part of row i itself when q ≤ m.Cols, and of rows i onwards of
// a contiguous m otherwise.
func span(m *Matrix, i, p, q int) []float64 {
	o := i * m.Stride
	return m.Data[o+p : o+q]
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
