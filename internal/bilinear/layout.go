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
// sub-operands as contiguous row ranges, so every linear combination in
// the encode/decode and basis-transformation phases streams over
// contiguous memory.

// ToRecursive copies m into stacked layout for L levels of an m0×k0
// partition. m's dimensions must be divisible by m0^L and k0^L.
func ToRecursive(m *matrix.Matrix, m0, k0, l, workers int) *matrix.Matrix {
	checkDivisible(m, m0, k0, l)
	h, w := m.Rows/ipow(m0, l), m.Cols/ipow(k0, l)
	out := matrix.New(ipow(m0*k0, l)*h, w)
	ToRecursiveInto(out, m, m0, k0, l, workers, pool.Global)
	return out
}

// ToRecursiveInto copies m into dst in stacked layout for L levels of
// an m0×k0 partition, the destination-passing form of ToRecursive. dst
// must have m's element count and (m0·k0)^L·(m.Rows/m0^L) rows; every
// element of dst is overwritten, so dst may be dirty scratch. View
// headers for the recursion are drawn from al.
//
//abmm:hotpath
func ToRecursiveInto(dst, m *matrix.Matrix, m0, k0, l, workers int, al pool.Allocator) {
	checkDivisible(m, m0, k0, l)
	if dst.Rows*dst.Cols != m.Rows*m.Cols || dst.Rows != ipow(m0*k0, l)*(m.Rows/ipow(m0, l)) {
		panic(matrix.ErrShape)
	}
	if l == 0 {
		matrix.CopyInto(dst, m)
		return
	}
	// Parallelize over the top-level blocks.
	rows := dst.Rows / (m0 * k0)
	if workers == 1 {
		toRecRec(dst, m, m0, k0, l, al)
		return
	}
	parallel.For(m0*k0, workers, 1, func(i int) {
		p, q := i/k0, i%k0
		sv, dv := al.Hdr(), al.Hdr()
		m.BlockInto(sv, m0, k0, p, q)
		dst.ViewInto(dv, i*rows, 0, rows, dst.Cols)
		toRecRec(dv, sv, m0, k0, l-1, al)
		al.PutHdr(sv)
		al.PutHdr(dv)
	})
}

// toRecRec is ToRecursiveInto's recursion, a plain function so the
// sequential path allocates no closures.
func toRecRec(dst, src *matrix.Matrix, m0, k0, level int, al pool.Allocator) {
	if level == 0 {
		matrix.CopyInto(dst, src)
		return
	}
	rows := dst.Rows / (m0 * k0)
	sv, dv := al.Hdr(), al.Hdr()
	for p := 0; p < m0; p++ {
		for q := 0; q < k0; q++ {
			i := p*k0 + q
			src.BlockInto(sv, m0, k0, p, q)
			dst.ViewInto(dv, i*rows, 0, rows, dst.Cols)
			toRecRec(dv, sv, m0, k0, level-1, al)
		}
	}
	al.PutHdr(sv)
	al.PutHdr(dv)
}

// FromRecursive copies a stacked-layout matrix s (laid out for L levels
// of an m0×n0 partition) into dst, which must have dimensions divisible
// by m0^L and n0^L and the same element count as s.
func FromRecursive(s *matrix.Matrix, dst *matrix.Matrix, m0, n0, l, workers int) {
	FromRecursiveInto(dst, s, m0, n0, l, workers, pool.Global)
}

// FromRecursiveInto is FromRecursive with its destination first (the
// library's ...Into convention) and recursion headers drawn from al.
//
//abmm:hotpath
func FromRecursiveInto(dst, s *matrix.Matrix, m0, n0, l, workers int, al pool.Allocator) {
	checkDivisible(dst, m0, n0, l)
	if s.Rows*s.Cols != dst.Rows*dst.Cols {
		panic(matrix.ErrShape)
	}
	if l == 0 {
		matrix.CopyInto(dst, s)
		return
	}
	rows := s.Rows / (m0 * n0)
	if workers == 1 {
		fromRecRec(dst, s, m0, n0, l, al)
		return
	}
	parallel.For(m0*n0, workers, 1, func(i int) {
		p, q := i/n0, i%n0
		sv, dv := al.Hdr(), al.Hdr()
		s.ViewInto(sv, i*rows, 0, rows, s.Cols)
		dst.BlockInto(dv, m0, n0, p, q)
		fromRecRec(dv, sv, m0, n0, l-1, al)
		al.PutHdr(sv)
		al.PutHdr(dv)
	})
}

// fromRecRec is FromRecursiveInto's recursion as a plain function.
func fromRecRec(d, src *matrix.Matrix, m0, n0, level int, al pool.Allocator) {
	if level == 0 {
		matrix.CopyInto(d, src)
		return
	}
	rows := src.Rows / (m0 * n0)
	sv, dv := al.Hdr(), al.Hdr()
	for p := 0; p < m0; p++ {
		for q := 0; q < n0; q++ {
			i := p*n0 + q
			src.ViewInto(sv, i*rows, 0, rows, src.Cols)
			d.BlockInto(dv, m0, n0, p, q)
			fromRecRec(dv, sv, m0, n0, level-1, al)
		}
	}
	al.PutHdr(sv)
	al.PutHdr(dv)
}

func checkDivisible(m *matrix.Matrix, m0, k0, l int) {
	if m.Rows%ipow(m0, l) != 0 || m.Cols%ipow(k0, l) != 0 {
		panic(matrix.ErrShape)
	}
}

func ipow(b, e int) int {
	v := 1
	for ; e > 0; e-- {
		v *= b
	}
	return v
}
