// Tests of the classical product against this package's oracle. The
// product is the packed kernel in internal/kernel, which package matrix
// cannot import (kernel imports matrix) but its external test package
// can. internal/kernel's own tests pin the same contract with every
// micro-kernel routine forced in turn; these run the routine the host
// picks on uniform random operands.
package matrix_test

import (
	"testing"

	"abmm/internal/kernel"
	"abmm/internal/matrix"
	"abmm/internal/pool"
)

func uniform(seed uint64, r, c int) *matrix.Matrix {
	m := matrix.New(r, c)
	m.FillUniform(matrix.Rand(seed), -1, 1)
	return m
}

func mul(c, a, b *matrix.Matrix, workers int) {
	kernel.Mul(c, a, b, kernel.Blocking{}, workers, pool.NewArena(), nil)
}

func TestMulMatchesNaive(t *testing.T) {
	sizes := []struct{ m, k, n int }{
		{1, 1, 1}, {2, 3, 4}, {7, 5, 3}, {64, 64, 64}, {65, 130, 33}, {100, 1, 100},
	}
	for _, s := range sizes {
		a := uniform(uint64(s.m), s.m, s.k)
		b := uniform(uint64(s.n), s.k, s.n)
		want := matrix.New(s.m, s.n)
		matrix.MulNaive(want, a, b)
		for _, workers := range []int{1, 4} {
			got := matrix.New(s.m, s.n)
			mul(got, a, b, workers)
			if !matrix.Equal(got, want) {
				t.Fatalf("%dx%dx%d workers=%d: differs from MulNaive by %g", s.m, s.k, s.n, workers, matrix.MaxAbsDiff(got, want))
			}
		}
	}
}

func TestMulAddAccumulates(t *testing.T) {
	a := uniform(1, 16, 16)
	b := uniform(2, 16, 16)
	c := uniform(3, 16, 16)
	orig := c.Clone()
	// c += a·b: GEMM's accumulating output with a unit coefficient.
	outs := []kernel.Out{{Coeff: 1, M: c, Accum: true}}
	at := []kernel.Term{{Coeff: 1, M: a}}
	bt := []kernel.Term{{Coeff: 1, M: b}}
	kernel.GEMM(outs, at, bt, kernel.Blocking{}, 2, pool.NewArena(), nil)
	prod := matrix.New(16, 16)
	matrix.MulNaive(prod, a, b)
	want := matrix.New(16, 16)
	matrix.LinearCombine(want, []float64{1, 1}, []*matrix.Matrix{orig, prod}, 1)
	if d := matrix.MaxAbsDiff(c, want); d > 1e-12 {
		t.Fatalf("accumulation off by %g", d)
	}
}

func TestMulOnViews(t *testing.T) {
	// Multiply overlapping strided views of one matrix; the result must
	// match the oracle on contiguous clones.
	base := uniform(9, 20, 20)
	a := base.View(1, 2, 8, 8)
	b := base.View(5, 5, 8, 8)
	got := matrix.New(8, 8)
	mul(got, a, b, 2)
	want := matrix.New(8, 8)
	matrix.MulNaive(want, a.Clone(), b.Clone())
	if !matrix.Equal(got, want) {
		t.Fatalf("view multiply off by %g", matrix.MaxAbsDiff(got, want))
	}
}

func TestMulEmpty(t *testing.T) {
	mul(matrix.New(0, 5), matrix.New(0, 3), matrix.New(3, 5), 2) // must not panic
	// With k = 0 the product is zero, which both the kernel and the
	// oracle must write over what the destination held.
	for name, f := range map[string]func(c, a, b *matrix.Matrix){
		"kernel.Mul": func(c, a, b *matrix.Matrix) { mul(c, a, b, 2) },
		"MulNaive":   matrix.MulNaive,
	} {
		c := matrix.New(2, 2)
		c.Fill(3)
		f(c, matrix.New(2, 0), matrix.New(0, 2))
		if c.MaxNorm() != 0 {
			t.Fatalf("%s: k=0 product must be zero", name)
		}
	}
}

func TestMulAssociatesWithNaive(t *testing.T) {
	// (AB)C == A(BC) up to roundoff; both sides via the packed kernel.
	a, b, c := uniform(11, 17, 13), uniform(12, 13, 19), uniform(13, 19, 7)
	ab, bc := matrix.New(17, 19), matrix.New(13, 7)
	mul(ab, a, b, 2)
	mul(bc, b, c, 2)
	l, r := matrix.New(17, 7), matrix.New(17, 7)
	mul(l, ab, c, 2)
	mul(r, a, bc, 2)
	if d := matrix.MaxAbsDiff(l, r); d > 1e-12 {
		t.Fatalf("associativity violated beyond roundoff: %g", d)
	}
}
