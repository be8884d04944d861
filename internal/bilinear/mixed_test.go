package bilinear_test

import (
	"testing"

	"abmm/internal/algos"
	"abmm/internal/bilinear"
	"abmm/internal/matrix"
)

func TestMultiplyMixedMatchesClassical(t *testing.T) {
	specs := []*bilinear.Spec{
		algos.Strassen().Spec,
		algos.Winograd().Spec,
		algos.Classical(2, 2, 2).Spec,
	}
	a, b := matrix.New(72, 72), matrix.New(72, 72)
	a.FillUniform(matrix.Rand(1), -1, 1)
	b.FillUniform(matrix.Rand(2), -1, 1)
	want := mulRef(a, b)
	for _, opt := range []bilinear.Options{
		{Workers: 2},
		{Workers: 2, Direct: true},
		{Workers: 2, TaskParallel: true},
	} {
		got := bilinear.MultiplyMixed(specs, a, b, opt)
		if d := matrix.MaxAbsDiff(got, want); d > 1e-11 {
			t.Errorf("opt %+v: diff %g", opt, d)
		}
	}
	// The tolerance above cannot tell the specs apart (each is an exact
	// algorithm), so pin the per-level spec choice bitwise: products
	// running concurrently at the top must still recurse through
	// specs[1:], exactly as the single-worker run does.
	seq := bilinear.MultiplyMixed(specs, a, b, bilinear.Options{Workers: 1})
	if par := bilinear.MultiplyMixed(specs, a, b, bilinear.Options{Workers: 2}); !matrix.Equal(par, seq) {
		t.Error("Workers 2 differs bitwise from Workers 1")
	}
}

func TestMultiplyMixedSingleLevelEqualsUniform(t *testing.T) {
	a, b := matrix.New(32, 32), matrix.New(32, 32)
	a.FillUniform(matrix.Rand(3), -1, 1)
	b.FillUniform(matrix.Rand(4), -1, 1)
	spec := algos.Strassen().Spec
	mixed := bilinear.MultiplyMixed([]*bilinear.Spec{spec}, a, b, bilinear.Options{Workers: 1})
	uniform := bilinear.Multiply(spec, a, b, 1, bilinear.Options{Workers: 1})
	if !matrix.Equal(mixed, uniform) {
		t.Fatal("single-spec mixed run differs from uniform run")
	}
}

func TestMultiplyMixedRejectsMismatchedDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	bilinear.MultiplyMixed([]*bilinear.Spec{
		algos.Strassen().Spec,
		algos.Classical(3, 3, 3).Spec,
	}, matrix.New(36, 36), matrix.New(36, 36), bilinear.Options{})
}

func TestMultiplyMixedRejectsDecomposed(t *testing.T) {
	fd, err := algos.FullDecomposition(algos.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	bilinear.MultiplyMixed([]*bilinear.Spec{algos.Strassen().Spec, fd.Spec},
		matrix.New(16, 16), matrix.New(16, 16), bilinear.Options{})
}

func TestMultiplyMixedEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	bilinear.MultiplyMixed(nil, matrix.New(4, 4), matrix.New(4, 4), bilinear.Options{})
}
