package core_test

import (
	"testing"

	"abmm/internal/algos"
	"abmm/internal/core"
	"abmm/internal/dd"
	"abmm/internal/exact"
	"abmm/internal/matrix"
)

func refMul(a, b *matrix.Matrix) *matrix.Matrix {
	c := matrix.New(a.Rows, b.Cols)
	matrix.Mul(c, a, b, 2)
	return c
}

func checkAlg(t *testing.T, alg *algos.Algorithm, m, k, n int, opt core.Options, tol float64) {
	t.Helper()
	a, b := matrix.New(m, k), matrix.New(k, n)
	a.FillUniform(matrix.Rand(uint64(m+k)), -1, 1)
	b.FillUniform(matrix.Rand(uint64(k+n+1)), -1, 1)
	got := core.Multiply(alg, a, b, opt)
	if d := matrix.MaxAbsDiff(got, refMul(a, b)); d > tol {
		t.Errorf("%s %dx%dx%d opts %+v: diff %g", alg.Name, m, k, n, opt, d)
	}
}

func TestStandardAlgorithmsThroughPipeline(t *testing.T) {
	for _, alg := range []*algos.Algorithm{algos.Strassen(), algos.Winograd(), algos.Classical(2, 2, 2)} {
		for _, l := range []int{0, 1, 3} {
			checkAlg(t, alg, 64, 64, 64, core.Options{Levels: l, Workers: 3}, 1e-11)
		}
	}
}

func TestAltBasisThroughPipeline(t *testing.T) {
	phi := exact.FromRows([][]int64{{1, 0, 0, 0}, {1, 1, 0, 0}, {0, 1, 1, 0}, {0, 0, 0, 1}})
	psi := exact.FromRows([][]int64{{1, 0, 0, -1}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}})
	nu := exact.FromRows([][]int64{{1, 0, 0, 0}, {0, 1, 1, 0}, {0, 0, 1, 0}, {0, -1, 0, 1}})
	alt, err := algos.AltBasis("strassen-alt", algos.Strassen(), phi, psi, nu)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []int{0, 1, 2, 3} {
		checkAlg(t, alt, 48, 48, 48, core.Options{Levels: l, Workers: 2}, 1e-10)
	}
}

func TestFullDecompositionThroughPipeline(t *testing.T) {
	fd, err := algos.FullDecomposition(algos.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []int{1, 2} {
		checkAlg(t, fd, 40, 40, 40, core.Options{Levels: l, Workers: 2}, 1e-10)
	}
}

func TestRectangularThroughPipeline(t *testing.T) {
	alg := algos.Classical(3, 2, 4)
	checkAlg(t, alg, 50, 30, 70, core.Options{Levels: 2, Workers: 2}, 1e-11)
}

func TestAutoLevels(t *testing.T) {
	mu := core.New(algos.Strassen(), core.Options{Levels: core.AutoLevels, MinBase: 16})
	if l := mu.Levels(256, 256, 256); l != 4 {
		t.Fatalf("auto levels = %d, want 4 (256→16 in 4 halvings)", l)
	}
	if l := mu.Levels(16, 16, 16); l != 0 {
		t.Fatalf("auto levels at MinBase = %d, want 0", l)
	}
	checkAlg(t, algos.Strassen(), 130, 70, 90, core.Options{Levels: core.AutoLevels, MinBase: 16}, 1e-11)
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	core.Multiply(algos.Strassen(), matrix.New(4, 5), matrix.New(4, 5), core.Options{})
}

func TestPipelineAgainstDDReference(t *testing.T) {
	// End-to-end integration: fast algorithm vs the quad-precision
	// reference on a larger run. The error must stay within the
	// theoretical bound scale f(n)·‖A‖‖B‖·eps.
	a, b := matrix.New(128, 128), matrix.New(128, 128)
	matrix.FillPair(a, b, matrix.DistSymmetric, matrix.Rand(7))
	got := core.Multiply(algos.Strassen(), a, b, core.Options{Levels: 3, Workers: 4})
	ref := dd.ReferenceProduct(a, b, 4)
	if d := matrix.MaxAbsDiff(got, ref); d > 1e-10 || d == 0 {
		t.Fatalf("error vs quad reference = %g (want small but nonzero)", d)
	}
}

func TestDeterministicAcrossSchedules(t *testing.T) {
	// Kernel-parallel and sequential runs of the same schedule must
	// produce bitwise-identical results: parallelism never reorders
	// any accumulation in this design.
	a, b := matrix.New(64, 64), matrix.New(64, 64)
	a.FillUniform(matrix.Rand(1), -1, 1)
	b.FillUniform(matrix.Rand(2), -1, 1)
	c1 := core.Multiply(algos.Winograd(), a, b, core.Options{Levels: 2, Workers: 1})
	c2 := core.Multiply(algos.Winograd(), a, b, core.Options{Levels: 2, Workers: 8})
	if !matrix.Equal(c1, c2) {
		t.Fatal("worker count changed the bitwise result")
	}
	c3 := core.Multiply(algos.Winograd(), a, b, core.Options{Levels: 2, Workers: 8, TaskParallel: true})
	if !matrix.Equal(c1, c3) {
		t.Fatal("task parallelism changed the bitwise result")
	}
	// An alternative-basis plan on a padded shape: with more than one
	// worker the top node's products run concurrently, which must not
	// move a bit either.
	p, q := matrix.New(199, 199), matrix.New(199, 199)
	p.FillUniform(matrix.Rand(3), -1, 1)
	q.FillUniform(matrix.Rand(4), -1, 1)
	want := core.Multiply(algos.Ours(), p, q, core.Options{Levels: 3, Workers: 1})
	for _, w := range []int{2, 3} {
		got := core.Multiply(algos.Ours(), p, q, core.Options{Levels: 3, Workers: w})
		if !matrix.Equal(want, got) {
			t.Fatalf("ours L=3 199²: Workers %d differs bitwise from Workers 1", w)
		}
	}
}
