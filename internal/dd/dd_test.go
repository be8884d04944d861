package dd

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestTwoSumExact(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		// Scale into a safe range to avoid overflow of a+b.
		a = math.Mod(a, 1e100)
		b = math.Mod(b, 1e100)
		s, e := twoSum(a, b)
		// The identity a+b = s+e holds exactly in real arithmetic;
		// check with big-exponent-safe comparison s = fl(a+b).
		// twoSum's contract is exact: s must equal fl(a+b) bit-for-bit.
		//abmm:allow float-discipline
		return s == a+b && (e == 0 || math.Abs(e) <= math.Abs(s)*0x1p-52+math.SmallestNonzeroFloat64)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTwoSumRecoversLostBits(t *testing.T) {
	s, e := twoSum(1e16, 1)
	if s != 1e16+1 && s+e != 1e16+1 {
		// 1e16+1 is not representable; the pair must carry the 1.
		if e != 1 {
			t.Fatalf("twoSum(1e16,1) = %g,%g", s, e)
		}
	}
}

func TestTwoProdExact(t *testing.T) {
	p, e := twoProd(1+0x1p-30, 1+0x1p-30)
	// (1+2^-30)^2 = 1 + 2^-29 + 2^-60; float64 rounds away 2^-60.
	if p != 1+0x1p-29 || e != 0x1p-60 {
		t.Fatalf("twoProd = %g, %g", p, e)
	}
}

func TestAddCancellation(t *testing.T) {
	// (1e17 + 1) - 1e17 must be exactly 1 in dd.
	x := AddFloat(FromFloat(1e17), 1)
	y := Sub(x, FromFloat(1e17))
	if y.Float() != 1 {
		t.Fatalf("cancellation lost the low part: %v", y)
	}
}

func TestMulPrecision(t *testing.T) {
	// (1+2^-40)*(1+2^-40) = 1 + 2^-39 + 2^-80: dd keeps all three terms.
	x := Add(FromFloat(1), FromFloat(0x1p-40))
	p := Mul(x, x)
	want := Add(Add(FromFloat(1), FromFloat(0x1p-39)), FromFloat(0x1p-80))
	if Cmp(p, want) != 0 {
		t.Fatalf("Mul lost precision: %v vs %v", p, want)
	}
}

func TestAbsCmpNeg(t *testing.T) {
	a := DD{1, 0x1p-60}
	if Cmp(a, FromFloat(1)) != 1 {
		t.Fatal("Cmp must see the low word")
	}
	if Cmp(Neg(a), a) != -1 {
		t.Fatal("Neg ordering")
	}
	if Cmp(Abs(Neg(a)), a) != 0 {
		t.Fatal("Abs(Neg(a)) != a")
	}
	if Cmp(a, a) != 0 {
		t.Fatal("Cmp(a,a) != 0")
	}
	z := DD{0, -0x1p-200}
	if Cmp(Abs(z), DD{0, 0x1p-200}) != 0 {
		t.Fatal("Abs on hi=0 negative lo")
	}
}

func TestAddAssociatesBetterThanFloat(t *testing.T) {
	// Summing n random values in dd then rounding must match the
	// exactly-computed (sorted Kahan-style) sum to full float64
	// precision, while plain float64 summation drifts.
	rng := rand.New(rand.NewPCG(1, 2))
	const n = 10000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64()*2 - 1
	}
	var ddSum DD
	for _, v := range vals {
		ddSum = AddFloat(ddSum, v)
	}
	// Reverse-order dd sum must agree with forward dd sum to ~2^-100.
	var rev DD
	for i := n - 1; i >= 0; i-- {
		rev = AddFloat(rev, vals[i])
	}
	if d := Sub(ddSum, rev); math.Abs(d.Float()) > 1e-25 {
		t.Fatalf("dd summation order-dependent beyond dd precision: %g", d.Float())
	}
}
