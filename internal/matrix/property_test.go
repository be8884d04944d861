package matrix

import (
	"math"
	"testing"
	"testing/quick"
)

// TestLinearCombineMatchesNaive cross-checks the fused kernel against a
// literal evaluation for random shapes, coefficients and worker counts.
func TestLinearCombineMatchesNaive(t *testing.T) {
	f := func(seed uint64) bool {
		rng := Rand(seed)
		r := int(seed%17) + 1
		c := int(seed/17%13) + 1
		terms := int(seed/221%5) + 1
		coeffs := make([]float64, terms)
		srcs := make([]*Matrix, terms)
		for i := range srcs {
			srcs[i] = New(r, c)
			srcs[i].FillUniform(rng, -1, 1)
			switch rng.IntN(4) {
			case 0:
				coeffs[i] = 1
			case 1:
				coeffs[i] = -1
			case 2:
				coeffs[i] = 0
			default:
				coeffs[i] = rng.Float64()*4 - 2
			}
		}
		got := New(r, c)
		LinearCombine(got, coeffs, srcs, int(seed%3)+1)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				want := 0.0
				for ti := range srcs {
					want += coeffs[ti] * srcs[ti].At(i, j)
				}
				if math.Abs(got.At(i, j)-want) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMulDistributesOverAddition checks A(B+C) = AB + AC to roundoff.
func TestMulDistributesOverAddition(t *testing.T) {
	f := func(seed uint64) bool {
		m := int(seed%20) + 1
		k := int(seed/20%20) + 1
		n := int(seed/400%20) + 1
		a := New(m, k)
		b := New(k, n)
		c := New(k, n)
		a.FillUniform(Rand(seed), -1, 1)
		b.FillUniform(Rand(seed+1), -1, 1)
		c.FillUniform(Rand(seed+2), -1, 1)
		sum := New(k, n)
		LinearCombine(sum, []float64{1, 1}, []*Matrix{b, c}, 1)
		left := New(m, n)
		Mul(left, a, sum, 2)
		ab, ac := New(m, n), New(m, n)
		Mul(ab, a, b, 2)
		Mul(ac, a, c, 2)
		right := New(m, n)
		LinearCombine(right, []float64{1, 1}, []*Matrix{ab, ac}, 1)
		return MaxAbsDiff(left, right) < 1e-12*float64(k+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMulTransposeIdentity checks (AB)ᵀ = BᵀAᵀ exactly for integer
// inputs (no roundoff with small integers).
func TestMulTransposeIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		m := int(seed%9) + 1
		k := int(seed/9%9) + 1
		n := int(seed/81%9) + 1
		a, b := New(m, k), New(k, n)
		rng := Rand(seed)
		for i := range a.Data {
			a.Data[i] = float64(rng.IntN(7) - 3)
		}
		for i := range b.Data {
			b.Data[i] = float64(rng.IntN(7) - 3)
		}
		ab := New(m, n)
		Mul(ab, a, b, 1)
		btat := New(n, m)
		Mul(btat, b.Transpose(), a.Transpose(), 1)
		return Equal(ab.Transpose(), btat)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestScaleRowsColsCompose checks diag(d)·A·diag(e) assembled either
// order gives identical results.
func TestScaleRowsColsCompose(t *testing.T) {
	f := func(seed uint64) bool {
		r := int(seed%10) + 1
		c := int(seed/10%10) + 1
		a := New(r, c)
		a.FillUniform(Rand(seed), -2, 2)
		d := make([]float64, r)
		e := make([]float64, c)
		rng := Rand(seed + 9)
		for i := range d {
			d[i] = math.Exp2(float64(rng.IntN(7) - 3))
		}
		for i := range e {
			e[i] = math.Exp2(float64(rng.IntN(7) - 3))
		}
		x, y := New(r, c), New(r, c)
		ScaleRows(x, a, d, 1)
		ScaleCols(x, x, e, 1)
		ScaleCols(y, a, e, 1)
		ScaleRows(y, y, d, 1)
		return Equal(x, y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPadPreservesNorms checks padding never changes the max norm.
func TestPadPreservesNorms(t *testing.T) {
	f := func(seed uint64) bool {
		r := int(seed%15) + 1
		c := int(seed/15%15) + 1
		m := New(r, c)
		m.FillUniform(Rand(seed), -3, 3)
		p := New(r+int(seed%5), c+int(seed/5%5))
		PadInto(p, m)
		// Padding adds exact zeros; the max |entry| is bit-identical.
		//abmm:allow float-discipline
		return p.MaxNorm() == m.MaxNorm()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
