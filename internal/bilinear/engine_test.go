package bilinear_test

import (
	"testing"
	"testing/quick"

	"abmm/internal/algos"
	"abmm/internal/bilinear"
	"abmm/internal/matrix"
)

func mulRef(a, b *matrix.Matrix) *matrix.Matrix {
	c := matrix.New(a.Rows, b.Cols)
	matrix.MulNaive(c, a, b)
	return c
}

func maxDiffVsClassical(t *testing.T, alg *algos.Algorithm, m, k, n, levels int, opt bilinear.Options) float64 {
	t.Helper()
	a := matrix.New(m, k)
	b := matrix.New(k, n)
	a.FillUniform(matrix.Rand(uint64(m*k+levels)), -1, 1)
	b.FillUniform(matrix.Rand(uint64(k*n+levels+1)), -1, 1)
	got := bilinear.Multiply(alg.Spec, a, b, levels, opt)
	return matrix.MaxAbsDiff(got, mulRef(a, b))
}

func TestMultiplyStrassenMatchesClassical(t *testing.T) {
	alg := algos.Strassen()
	for _, levels := range []int{0, 1, 2, 3} {
		for _, opt := range []bilinear.Options{
			{Workers: 1},
			{Workers: 4},
		} {
			if d := maxDiffVsClassical(t, alg, 64, 64, 64, levels, opt); d > 1e-11 {
				t.Errorf("levels=%d opt=%+v: diff %g", levels, opt, d)
			}
		}
	}
}

func TestMultiplyWinogradAndClassical222(t *testing.T) {
	for _, alg := range []*algos.Algorithm{algos.Winograd(), algos.Classical(2, 2, 2)} {
		if d := maxDiffVsClassical(t, alg, 96, 96, 96, 2, bilinear.Options{Workers: 3}); d > 1e-11 {
			t.Errorf("%s: diff %g", alg.Name, d)
		}
	}
}

func TestMultiplyRectangularBase(t *testing.T) {
	// ⟨3,2,4⟩ classical exercises rectangular partitioning.
	alg := algos.Classical(3, 2, 4)
	if d := maxDiffVsClassical(t, alg, 36, 16, 64, 2, bilinear.Options{Workers: 2}); d > 1e-11 {
		t.Errorf("rectangular base diff %g", d)
	}
}

func TestMultiplyOddSizesViaPadding(t *testing.T) {
	alg := algos.Strassen()
	for _, dims := range [][3]int{{5, 7, 3}, {33, 65, 17}, {100, 100, 100}, {1, 9, 1}} {
		if d := maxDiffVsClassical(t, alg, dims[0], dims[1], dims[2], 2, bilinear.Options{Workers: 2}); d > 1e-11 {
			t.Errorf("%v: diff %g", dims, d)
		}
	}
}

func TestMultiplyKroneckerComposed(t *testing.T) {
	k, err := algos.Kronecker(algos.Strassen(), algos.Classical(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	// ⟨4,4,2;28⟩ base case: multiply a 32x32 by 32x16.
	if d := maxDiffVsClassical(t, k, 32, 32, 16, 1, bilinear.Options{Workers: 2}); d > 1e-11 {
		t.Errorf("composed algorithm diff %g", d)
	}
}

func TestMultiplyPropertyRandomSizes(t *testing.T) {
	alg := algos.Strassen()
	f := func(seed uint64) bool {
		m := int(seed%50) + 1
		k := int(seed/50%50) + 1
		n := int(seed/2500%50) + 1
		levels := int(seed % 3)
		a, b := matrix.New(m, k), matrix.New(k, n)
		a.FillUniform(matrix.Rand(seed), -1, 1)
		b.FillUniform(matrix.Rand(seed+1), -1, 1)
		got := bilinear.Multiply(alg.Spec, a, b, levels, bilinear.Options{Workers: 2})
		return matrix.MaxAbsDiff(got, mulRef(a, b)) < 1e-11
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestExecRejectsBadShapes(t *testing.T) {
	alg := algos.Strassen()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-conforming stacked operands")
		}
	}()
	bilinear.Exec(alg.Spec, matrix.New(16, 5), matrix.New(16, 7), 2, bilinear.Options{})
}

func TestExecRejectsNegativeLevels(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative levels")
		}
	}()
	bilinear.Exec(algos.Strassen().Spec, matrix.New(4, 4), matrix.New(4, 4), -1, bilinear.Options{})
}

func TestMultiplyRejectsDecomposedSpec(t *testing.T) {
	fd, err := algos.FullDecomposition(algos.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for decomposed spec in Multiply")
		}
	}()
	bilinear.Multiply(fd.Spec, matrix.New(4, 4), matrix.New(4, 4), 1, bilinear.Options{})
}
