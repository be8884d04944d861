package comm

import (
	"abmm/internal/algos"
	"abmm/internal/basis"
	"abmm/internal/bilinear"
)

// Trace replays the element-level memory-access pattern of a modeled
// direct schedule of Algorithm 1 (layout conversion, basis
// transformations, a bilinear recursion that materializes one S/T/P
// scratch set per level over a blocked 64/256/512 i,k,j classical base
// case, inverse transformation, inverse layout) into the cache
// simulator, and returns the resulting traffic in words. The engine
// fuses its last step into the packed kernel instead. n must be
// divisible by the base powers for the requested levels.
func Trace(alg *algos.Algorithm, n, levels int, c *Cache) int64 {
	s := alg.Spec
	t := &tracer{c: c, spec: s}
	aWords := int64(n * n)
	a := t.alloc(aWords)
	b := t.alloc(aWords)
	// Layout conversion: stream A and B into stacked layout.
	as := t.alloc(aWords)
	bs := t.alloc(aWords)
	t.stream(a, as, aWords)
	t.stream(b, bs, aWords)
	// Basis transformations grow operands for decomposed algorithms.
	if alg.Phi != nil {
		as = t.transform(alg.Phi, as, aWords, levels)
	}
	if alg.Psi != nil {
		bs = t.transform(alg.Psi, bs, aWords, levels)
	}
	base := n / ipow(s.N0, levels)
	aw := int64(n/ipow(s.M0, levels)) * int64(n/ipow(s.K0, levels)) * int64(ipow(s.DU(), levels))
	bw := int64(n/ipow(s.K0, levels)) * int64(n/ipow(s.N0, levels)) * int64(ipow(s.DV(), levels))
	cs := t.recurse(as, bs, aw, bw, levels, base)
	if alg.Nu != nil {
		cs = t.transform(alg.Nu.Transposed(), cs, t.sizeOf(cs), levels)
	}
	out := t.alloc(aWords)
	t.stream(cs, out, aWords)
	return c.TrafficWords()
}

type tracer struct {
	c     *Cache
	spec  *bilinear.Spec
	next  int64
	sizes map[int64]int64
}

func (t *tracer) alloc(words int64) int64 {
	if t.sizes == nil {
		t.sizes = map[int64]int64{}
	}
	addr := t.next
	t.next += words
	t.sizes[addr] = words
	return addr
}

// free releases the most recent allocations; the bump pointer rewinds
// so scratch reuses addresses like the engine's buffer pool.
func (t *tracer) freeTo(mark int64) { t.next = mark }

func (t *tracer) sizeOf(addr int64) int64 { return t.sizes[addr] }

// stream models a copy: read src, write dst.
func (t *tracer) stream(src, dst, words int64) {
	t.c.TouchRange(src, int(words))
	t.c.TouchRange(dst, int(words))
}

// combine models a fused linear combination of `terms` source ranges
// into one destination range: each source read once, destination
// written once per term batch (rows stay cache-hot, so one pass).
func (t *tracer) combine(srcs []int64, words int64, dst int64) {
	for _, s := range srcs {
		t.c.TouchRange(s, int(words))
	}
	t.c.TouchRange(dst, int(words))
}

// transform models the recursive basis transformation; returns the
// (possibly grown) output operand address.
func (t *tracer) transform(tr *basis.Transform, src, words int64, level int) int64 {
	outWords := words
	for i := 0; i < level; i++ {
		outWords = outWords / int64(tr.D1) * int64(tr.D2)
	}
	dst := t.alloc(outWords)
	t.transformRec(tr, src, dst, words, outWords, level)
	return dst
}

func (t *tracer) transformRec(tr *basis.Transform, src, dst, srcWords, dstWords int64, level int) {
	if level == 0 {
		t.stream(src, dst, srcWords)
		return
	}
	mark := t.next
	sg := srcWords / int64(tr.D1)
	dg := dstWords / int64(tr.D2)
	tmp := t.alloc(int64(tr.D1) * dg)
	for i := 0; i < tr.D1; i++ {
		t.transformRec(tr, src+int64(i)*sg, tmp+int64(i)*dg, sg, dg, level-1)
	}
	srcs := make([]int64, 0, tr.D1)
	for j := 0; j < tr.D2; j++ {
		srcs = srcs[:0]
		for i := 0; i < tr.D1; i++ {
			if tr.M.At(i, j).Sign() != 0 {
				srcs = append(srcs, tmp+int64(i)*dg)
			}
		}
		t.combine(srcs, dg, dst+int64(j)*dg)
	}
	t.freeTo(mark)
}

// recurse models the direct schedule's bilinear recursion, every level
// materialized, and returns the address of the product operand.
func (t *tracer) recurse(a, b, aWords, bWords int64, level, base int) int64 {
	s := t.spec
	cWords := int64(ipow(s.DW(), level)) * int64(base*base)
	c := t.alloc(cWords)
	t.recurseInto(a, b, c, aWords, bWords, cWords, level, base)
	return c
}

func (t *tracer) recurseInto(a, b, c, aWords, bWords, cWords int64, level, base int) {
	if level == 0 {
		t.baseMul(a, b, c, base)
		return
	}
	s := t.spec
	mark := t.next
	sw := aWords / int64(s.DU())
	tw := bWords / int64(s.DV())
	pw := cWords / int64(s.DW())
	sBuf := t.alloc(sw)
	tBuf := t.alloc(tw)
	pBuf := t.alloc(pw)
	srcs := make([]int64, 0, s.DU())
	for r := 0; r < s.R; r++ {
		srcs = srcs[:0]
		for i := 0; i < s.DU(); i++ {
			if s.U.At(i, r).Sign() != 0 {
				srcs = append(srcs, a+int64(i)*sw)
			}
		}
		t.combine(srcs, sw, sBuf)
		srcs = srcs[:0]
		for i := 0; i < s.DV(); i++ {
			if s.V.At(i, r).Sign() != 0 {
				srcs = append(srcs, b+int64(i)*tw)
			}
		}
		t.combine(srcs, tw, tBuf)
		t.recurseInto(sBuf, tBuf, pBuf, sw, tw, pw, level-1, base)
		for k := 0; k < s.DW(); k++ {
			if s.W.At(k, r).Sign() != 0 {
				// Accumulate P into output group k: read P, update C_k.
				t.c.TouchRange(pBuf, int(pw))
				t.c.TouchRange(c+int64(k)*pw, int(pw))
			}
		}
	}
	t.freeTo(mark)
}

// baseMul models the cache-blocked classical kernel on contiguous
// h×h by h×h blocks (loop order i,k,j with 64/256/512 tiling).
func (t *tracer) baseMul(a, b, c int64, h int) {
	const bm, bk, bn = 64, 256, 512
	for i0 := 0; i0 < h; i0 += bm {
		i1 := min(i0+bm, h)
		for k0 := 0; k0 < h; k0 += bk {
			k1 := min(k0+bk, h)
			for j0 := 0; j0 < h; j0 += bn {
				j1 := min(j0+bn, h)
				for i := i0; i < i1; i++ {
					t.c.TouchRange(a+int64(i*h+k0), k1-k0)
					for k := k0; k < k1; k++ {
						t.c.TouchRange(b+int64(k*h+j0), j1-j0)
					}
					t.c.TouchRange(c+int64(i*h+j0), j1-j0)
				}
			}
		}
	}
}

// TraceClassical replays the blocked classical kernel on an n×n
// multiply and returns the traffic in words.
func TraceClassical(n int, c *Cache) int64 {
	t := &tracer{c: c}
	a := t.alloc(int64(n * n))
	b := t.alloc(int64(n * n))
	out := t.alloc(int64(n * n))
	t.baseMul(a, b, out, n)
	return c.TrafficWords()
}

func ipow(b, e int) int {
	v := 1
	for ; e > 0; e-- {
		v *= b
	}
	return v
}
