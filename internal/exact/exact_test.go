package exact

import (
	"math/big"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestFromIntsAndEqual(t *testing.T) {
	a := FromInts(2, 2, []int64{1, 2, 3, 4})
	b := FromRows([][]int64{{1, 2}, {3, 4}})
	if !Equal(a, b) {
		t.Fatal("FromInts != FromRows")
	}
	b.SetInt(0, 0, 5)
	if Equal(a, b) {
		t.Fatal("Equal missed change")
	}
	if Equal(a, New(2, 3)) {
		t.Fatal("Equal missed shape")
	}
}

func TestFromIntsLengthPanics(t *testing.T) {
	defer expectPanic(t)
	FromInts(2, 2, []int64{1})
}

func TestMulIdentity(t *testing.T) {
	a := FromRows([][]int64{{1, -2, 3}, {0, 5, -1}})
	if !Equal(Mul(a, Identity(3)), a) || !Equal(Mul(Identity(2), a), a) {
		t.Fatal("identity multiplication")
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]int64{{1, 2}, {3, 4}})
	b := FromRows([][]int64{{5, 6}, {7, 8}})
	want := FromRows([][]int64{{19, 22}, {43, 50}})
	if !Equal(Mul(a, b), want) {
		t.Fatal("2x2 product wrong")
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([][]int64{{1, 2}, {3, 4}})
	b := FromRows([][]int64{{4, 3}, {2, 1}})
	if !Equal(Sub(Add(a, b), b), a) {
		t.Fatal("(a+b)-b != a")
	}
	if !Equal(Scale(a, big.NewRat(2, 1)), Add(a, a)) {
		t.Fatal("2a != a+a")
	}
}

func TestTransposeInvolution(t *testing.T) {
	a := randExact(rand.New(rand.NewPCG(1, 2)), 3, 5)
	if !Equal(a.Transpose().Transpose(), a) {
		t.Fatal("transpose involution")
	}
	if !Equal(Mul(a, a.Transpose()).Transpose(), Mul(a, a.Transpose())) {
		t.Fatal("AAᵀ must be symmetric")
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 20; trial++ {
		n := rng.IntN(5) + 1
		m := randExact(rng, n, n)
		inv, err := m.Inverse()
		if err != nil {
			continue // singular random draw: acceptable, try another
		}
		if !Mul(m, inv).IsIdentity() || !Mul(inv, m).IsIdentity() {
			t.Fatalf("inverse round trip failed for\n%v", m)
		}
	}
}

func TestInverseSingular(t *testing.T) {
	m := FromRows([][]int64{{1, 2}, {2, 4}})
	if _, err := m.Inverse(); err == nil {
		t.Fatal("expected singular error")
	}
	if _, err := New(2, 3).Inverse(); err == nil {
		t.Fatal("expected non-square error")
	}
}

func TestInverseNeedsPivoting(t *testing.T) {
	// Zero in the (0,0) position forces a row swap.
	m := FromRows([][]int64{{0, 1}, {1, 0}})
	inv, err := m.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(inv, m) {
		t.Fatal("permutation inverse wrong")
	}
}

func TestInverseFractional(t *testing.T) {
	m := FromRows([][]int64{{2, 0}, {0, 4}})
	inv, err := m.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	want := New(2, 2)
	want.SetFrac(0, 0, 1, 2)
	want.SetFrac(1, 1, 1, 4)
	if !Equal(inv, want) {
		t.Fatal("diagonal inverse wrong")
	}
}

func TestKroneckerMixedProduct(t *testing.T) {
	// (A⊗B)(C⊗D) = (AC)⊗(BD).
	rng := rand.New(rand.NewPCG(5, 6))
	a, b := randExact(rng, 2, 3), randExact(rng, 3, 2)
	c, d := randExact(rng, 3, 2), randExact(rng, 2, 3)
	left := Mul(Kronecker(a, b), Kronecker(c, d))
	right := Kronecker(Mul(a, c), Mul(b, d))
	if !Equal(left, right) {
		t.Fatal("Kronecker mixed-product identity violated")
	}
}

func TestKroneckerIdentity(t *testing.T) {
	if !Kronecker(Identity(2), Identity(3)).IsIdentity() {
		t.Fatal("I⊗I != I")
	}
}

func TestNNZ(t *testing.T) {
	m := FromRows([][]int64{{0, 1}, {2, 0}})
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
	m.SetFrac(0, 0, 1, 3)
	if m.NNZ() != 3 {
		t.Fatal("NNZ after SetFrac")
	}
}

func TestFloat64sExactAndLossy(t *testing.T) {
	m := New(1, 2)
	m.SetFrac(0, 0, 3, 4) // dyadic: exact
	m.SetInt(0, 1, -7)
	f := m.Float64s()
	if f[0] != 0.75 || f[1] != -7 {
		t.Fatalf("Float64s = %v", f)
	}
	m.SetFrac(0, 0, 1, 3) // not a float64: Float64s refuses to round it
	defer expectPanic(t)
	m.Float64s()
}

func TestCloneIsDeep(t *testing.T) {
	a := FromRows([][]int64{{1}})
	b := a.Clone()
	b.SetInt(0, 0, 2)
	if a.At(0, 0).Cmp(big.NewRat(1, 1)) != 0 {
		t.Fatal("clone shares storage")
	}
}

func TestStringRendering(t *testing.T) {
	m := New(1, 2)
	m.SetFrac(0, 0, 1, 2)
	m.SetInt(0, 1, 3)
	if got := m.String(); got != "1/2 3\n" {
		t.Fatalf("String = %q", got)
	}
}

func TestInversePropertyRandomUnimodular(t *testing.T) {
	// Products of elementary integer matrices are unimodular, hence
	// always invertible with integer inverse entries.
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed+1))
		n := rng.IntN(4) + 2
		m := Identity(n)
		for step := 0; step < 8; step++ {
			i, j := rng.IntN(n), rng.IntN(n)
			if i == j {
				continue
			}
			e := Identity(n)
			e.SetInt(i, j, int64(rng.IntN(5)-2))
			m = Mul(m, e)
		}
		inv, err := m.Inverse()
		if err != nil {
			return false
		}
		return Mul(m, inv).IsIdentity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func randExact(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.SetInt(i, j, int64(rng.IntN(11)-5))
		}
	}
	return m
}

func expectPanic(t *testing.T) {
	t.Helper()
	if recover() == nil {
		t.Fatal("expected panic")
	}
}
