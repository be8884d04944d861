package matrix

import (
	"testing"
	"testing/quick"
)

func TestMulMatchesNaive(t *testing.T) {
	sizes := []struct{ m, k, n int }{
		{1, 1, 1}, {2, 3, 4}, {7, 5, 3}, {64, 64, 64}, {65, 130, 33}, {100, 1, 100},
	}
	for _, s := range sizes {
		a := randMat(uint64(s.m), s.m, s.k)
		b := randMat(uint64(s.n), s.k, s.n)
		want := New(s.m, s.n)
		MulNaive(want, a, b)
		for _, workers := range []int{1, 4} {
			got := New(s.m, s.n)
			Mul(got, a, b, workers)
			if d := MaxAbsDiff(got, want); d > 1e-12 {
				t.Fatalf("%dx%dx%d workers=%d: diff %g", s.m, s.k, s.n, workers, d)
			}
		}
	}
}

func TestMulAddAccumulates(t *testing.T) {
	a := randMat(1, 16, 16)
	b := randMat(2, 16, 16)
	c := randMat(3, 16, 16)
	orig := c.Clone()
	MulAdd(c, a, b, 2)
	prod := New(16, 16)
	Mul(prod, a, b, 1)
	want := New(16, 16)
	LinearCombine(want, []float64{1, 1}, []*Matrix{orig, prod}, 1)
	if d := MaxAbsDiff(c, want); d > 1e-12 {
		t.Fatalf("MulAdd accumulation off by %g", d)
	}
}

func TestMulOnViews(t *testing.T) {
	// Multiply strided views; results must match contiguous clones.
	base := randMat(9, 20, 20)
	a := base.View(1, 2, 8, 8)
	b := base.View(5, 5, 8, 8)
	got := New(8, 8)
	Mul(got, a, b, 2)
	want := New(8, 8)
	MulNaive(want, a.Clone(), b.Clone())
	if d := MaxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("view multiply off by %g", d)
	}
}

func TestMulEmpty(t *testing.T) {
	Mul(New(0, 5), New(0, 3), New(3, 5), 2) // must not panic
	c := New(2, 2)
	c.Fill(3)
	Mul(c, New(2, 0), New(0, 2), 2)
	if c.MaxNorm() != 0 {
		t.Fatal("k=0 product must be zero")
	}
}

func TestMulIdentityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		n := int(seed%40) + 1
		a := randMat(seed, n, n)
		c := New(n, n)
		Mul(c, a, Identity(n), 3)
		if !Equal(c, a) {
			return false
		}
		Mul(c, Identity(n), a, 3)
		return Equal(c, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMulAssociatesWithNaive(t *testing.T) {
	// (AB)C == A(BC) up to roundoff; both sides via blocked kernel.
	a, b, c := randMat(11, 17, 13), randMat(12, 13, 19), randMat(13, 19, 7)
	ab, bc := New(17, 19), New(13, 7)
	Mul(ab, a, b, 2)
	Mul(bc, b, c, 2)
	l, r := New(17, 7), New(17, 7)
	Mul(l, ab, c, 2)
	Mul(r, a, bc, 2)
	if d := MaxAbsDiff(l, r); d > 1e-12 {
		t.Fatalf("associativity violated beyond roundoff: %g", d)
	}
}
