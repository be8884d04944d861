package bilinear

import (
	"abmm/internal/matrix"
	"abmm/internal/parallel"
	"abmm/internal/pool"
)

// The block-recursive ("stacked") layout stores an M×K matrix that will
// undergo L recursion levels of an m0×k0 partition as a tall matrix of
// (m0·k0)^L base blocks, each (M/m0^L)×(K/k0^L), stacked vertically in
// recursive row-major block order: the first m0·k0 groups of rows are
// the recursively-laid-out sub-blocks A₁...A_{m0k0} of the top-level
// partition. One recursion level of the engine then addresses its D
// sub-operands as row ranges, so every linear combination in the
// encode/decode and basis-transformation phases streams over whole rows
// in order.
//
// Rows need not be adjacent. The stacked matrices a plan draws from its
// pool.Arena have w+8 elements of stride when w is a multiple of 256
// (one cache line more than a row that is a whole number of 2 KiB, so
// a kernel tile's 16 rows do not share one L1 set); every pass here
// and in the engine addresses rows through Stride, and the row passes
// walk a padded block row by row instead of as one flat span.
//
// The stacked matrix's shape fixes M and K: (m0·k0)^L·h rows of w
// columns lay out an (m0^L·h)×(k0^L·w) matrix, the padded operand. A
// caller's matrix smaller than that is its top-left corner and the rest
// of it, the pad lanes, is zero. Stacking writes the pad lanes and
// unstacking skips them, so padding costs no pass of its own.

// ToRecursive copies m into stacked layout for L levels of an m0×k0
// partition, zero-padding its dimensions up to multiples of m0^L and
// k0^L.
func ToRecursive(m *matrix.Matrix, m0, k0, l, workers int) *matrix.Matrix {
	bm, bk := ipow(m0, l), ipow(k0, l)
	h, w := (m.Rows+bm-1)/bm, (m.Cols+bk-1)/bk
	out := matrix.New(ipow(m0*k0, l)*h, w)
	ToRecursiveInto(out, m, m0, k0, l, workers, pool.NewArena())
	return out
}

// ToRecursiveInto copies m into dst in stacked layout for L levels of
// an m0×k0 partition, the destination-passing form of ToRecursive. dst
// fixes the padded operand, and m must fit in it; dst's row count must
// be a multiple of (m0·k0)^L. Every element of dst is overwritten, the
// pad lanes with zeros, so dst may be dirty scratch. View headers for
// the recursion are drawn from al.
//
//abmm:hotpath
func ToRecursiveInto(dst, m *matrix.Matrix, m0, k0, l, workers int, al *pool.Arena) {
	ph, pw := paddedShape(dst, m, m0, k0, l)
	if workers == 1 || l == 0 {
		toRecRec(dst, m, m0, k0, l, ph, pw, al)
		return
	}
	// Parallelize over the top-level blocks.
	parallel.For(m0*k0, workers, 1, func(i int) {
		sv, dv := al.Hdr(), al.Hdr()
		blockViews(dv, sv, dst, m, m0, k0, ph, pw, i)
		toRecRec(dv, sv, m0, k0, l-1, ph/m0, pw/k0, al)
		al.PutHdr(sv)
		al.PutHdr(dv)
	})
}

// toRecRec is ToRecursiveInto's recursion on the ph×pw padded operand
// whose top-left corner is src, a plain function so the sequential path
// allocates no closures.
func toRecRec(dst, src *matrix.Matrix, m0, k0, level, ph, pw int, al *pool.Arena) {
	if level == 0 {
		matrix.PadInto(dst, src)
		return
	}
	sv, dv := al.Hdr(), al.Hdr()
	for i := 0; i < m0*k0; i++ {
		blockViews(dv, sv, dst, src, m0, k0, ph, pw, i)
		toRecRec(dv, sv, m0, k0, level-1, ph/m0, pw/k0, al)
	}
	al.PutHdr(sv)
	al.PutHdr(dv)
}

// FromRecursive copies a stacked-layout matrix s (laid out for L levels
// of an m0×n0 partition) into dst, which receives the top-left corner
// of the padded matrix s lays out: dst may have that matrix's shape or
// be smaller, and what lies outside it is dropped.
func FromRecursive(s *matrix.Matrix, dst *matrix.Matrix, m0, n0, l, workers int) {
	FromRecursiveInto(dst, s, m0, n0, l, workers, pool.NewArena())
}

// FromRecursiveInto is FromRecursive with its destination first (the
// library's ...Into convention) and recursion headers drawn from al. It
// writes dst's elements and nothing else; s's row count must be a
// multiple of (m0·n0)^L.
//
//abmm:hotpath
func FromRecursiveInto(dst, s *matrix.Matrix, m0, n0, l, workers int, al *pool.Arena) {
	ph, pw := paddedShape(s, dst, m0, n0, l)
	if workers == 1 || l == 0 {
		fromRecRec(dst, s, m0, n0, l, ph, pw, al)
		return
	}
	parallel.For(m0*n0, workers, 1, func(i int) {
		sv, dv := al.Hdr(), al.Hdr()
		blockViews(sv, dv, s, dst, m0, n0, ph, pw, i)
		fromRecRec(dv, sv, m0, n0, l-1, ph/m0, pw/n0, al)
		al.PutHdr(sv)
		al.PutHdr(dv)
	})
}

// fromRecRec is FromRecursiveInto's recursion as a plain function.
func fromRecRec(d, src *matrix.Matrix, m0, n0, level, ph, pw int, al *pool.Arena) {
	if level == 0 {
		matrix.CropInto(d, src)
		return
	}
	sv, dv := al.Hdr(), al.Hdr()
	for i := 0; i < m0*n0; i++ {
		blockViews(sv, dv, src, d, m0, n0, ph, pw, i)
		fromRecRec(dv, sv, m0, n0, level-1, ph/m0, pw/n0, al)
	}
	al.PutHdr(sv)
	al.PutHdr(dv)
}

// paddedShape returns the ph×pw padded operand the stacked matrix st
// lays out for l levels of an m0×k0 partition. It panics unless st's
// row count is a multiple of (m0·k0)^l and m fits in that operand.
func paddedShape(st, m *matrix.Matrix, m0, k0, l int) (ph, pw int) {
	if st.Rows%ipow(m0*k0, l) != 0 {
		panic(matrix.ErrShape)
	}
	ph, pw = st.Rows/ipow(k0, l), st.Cols*ipow(k0, l)
	if m.Rows > ph || m.Cols > pw {
		panic(matrix.ErrShape)
	}
	return ph, pw
}

// blockViews points slab at the i-th of the m0·k0 row slabs of the
// stacked matrix st and part at the piece of m inside block i, in
// row-major order, of the m0×k0 partition of the ph×pw padded operand
// whose top-left corner m is. part is 0×0 when the block lies wholly in
// the pad lanes.
func blockViews(slab, part, st, m *matrix.Matrix, m0, k0, ph, pw, i int) {
	rows := st.Rows / (m0 * k0)
	st.ViewInto(slab, i*rows, 0, rows, st.Cols)
	bh, bw := ph/m0, pw/k0
	r0, c0 := i/k0*bh, i%k0*bw
	r, c := min(bh, m.Rows-r0), min(bw, m.Cols-c0)
	if r <= 0 || c <= 0 {
		*part = matrix.Matrix{}
		return
	}
	m.ViewInto(part, r0, c0, r, c)
}

func ipow(b, e int) int {
	v := 1
	for ; e > 0; e-- {
		v *= b
	}
	return v
}
