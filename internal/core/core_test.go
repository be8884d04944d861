package core_test

import (
	"testing"

	"abmm/internal/algos"
	"abmm/internal/basis"
	"abmm/internal/bilinear"
	"abmm/internal/core"
	"abmm/internal/dd"
	"abmm/internal/exact"
	"abmm/internal/matrix"
	"abmm/internal/pool"
)

func refMul(a, b *matrix.Matrix) *matrix.Matrix {
	c := matrix.New(a.Rows, b.Cols)
	matrix.MulNaive(c, a, b)
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

// TestAutoLevels pins the automatic depth rule (recurse while every
// base-block dimension stays ≥ 512) at the repository benchmark's
// shapes and at odd and non-square shapes near the floor. Levels
// resolves the depth without multiplying.
func TestAutoLevels(t *testing.T) {
	mu := core.New(algos.Ours(), core.Options{Levels: core.AutoLevels})
	for _, tc := range []struct{ m, k, n, want int }{
		{2048, 2048, 2048, 2}, // square-2048
		{1024, 1024, 1024, 1},
		{1023, 1023, 1023, 0},
		{4096, 1024, 4096, 1},
		{1536, 512, 1536, 0}, // the inner dimension binds
		{64, 64, 64, 0},      // serve-small
		{128, 128, 128, 0},
		{256, 256, 256, 0},
		{128, 256, 64, 0},
	} {
		if l := mu.Levels(tc.m, tc.k, tc.n); l != tc.want {
			t.Errorf("auto levels at %dx%dx%d = %d, want %d", tc.m, tc.k, tc.n, l, tc.want)
		}
	}
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
	// Runs of the one recursion schedule at different worker counts
	// must produce bitwise-identical results: parallelism never
	// reorders any accumulation in this design.
	a, b := matrix.New(64, 64), matrix.New(64, 64)
	a.FillUniform(matrix.Rand(1), -1, 1)
	b.FillUniform(matrix.Rand(2), -1, 1)
	c1 := core.Multiply(algos.Winograd(), a, b, core.Options{Levels: 2, Workers: 1})
	c2 := core.Multiply(algos.Winograd(), a, b, core.Options{Levels: 2, Workers: 8})
	if !matrix.Equal(c1, c2) {
		t.Fatal("worker count changed the bitwise result")
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

// TestPlanMatchesStagedPipeline runs every catalog algorithm on ragged
// shapes and holds Plan.MultiplyInto, whose stacking passes pad and
// crop, bit for bit to the same pipeline staged through each layer's
// exported functions with padding and cropping as passes of their own.
// Each plan first multiplies other operands, so the checked call runs
// on dirty arena buffers.
func TestPlanMatchesStagedPipeline(t *testing.T) {
	catalog := []*algos.Algorithm{
		algos.Classical(2, 2, 2), algos.Strassen(), algos.Winograd(), algos.AltWinograd(), algos.Ours(),
		algos.Laderman(), algos.LadermanAlt(), algos.HopcroftKerr223(), algos.Rect323(),
	}
	for _, sh := range [][3]int{{100, 130, 90}, {81, 80, 82}, {33, 17, 65}, {7, 9, 5}} {
		m, k, n := sh[0], sh[1], sh[2]
		a, b := matrix.New(m, k), matrix.New(k, n)
		a.FillUniform(matrix.Rand(uint64(m)), -1, 1)
		b.FillUniform(matrix.Rand(uint64(n)), -1, 1)
		wa, wb := matrix.New(m, k), matrix.New(k, n)
		wa.FillUniform(matrix.Rand(uint64(k)), 1, 2)
		wb.FillUniform(matrix.Rand(uint64(k+1)), 1, 2)
		for _, alg := range catalog {
			for levels := 1; levels <= 3; levels++ {
				for _, w := range []int{1, 2} {
					plan := core.NewPlan(alg, core.Options{Levels: levels, Workers: w}, m, k, n)
					got := matrix.New(m, n)
					plan.MultiplyInto(got, wa, wb)
					plan.MultiplyInto(got, a, b)
					if !matrix.Equal(got, stagedMultiply(alg, a, b, levels, w)) {
						t.Errorf("%s %dx%dx%d L=%d w=%d: plan differs bitwise from the staged pipeline", alg.Name, m, k, n, levels, w)
					}
				}
			}
		}
	}
}

// stagedMultiply computes a·b through the layers' exported functions:
//
//	PadInto → ToRecursiveInto → φ/ψ → ExecIntoCancel → νᵀ → FromRecursiveInto → CropInto
//
// applying each basis transform in place when it can, as core.Plan does.
func stagedMultiply(alg *algos.Algorithm, a, b *matrix.Matrix, levels, w int) *matrix.Matrix {
	s := alg.Spec
	ar := pool.NewArena()
	pm, pk, pn := matrix.PadShape(a.Rows, a.Cols, b.Cols, s.M0, s.K0, s.N0, levels)
	pow := func(x int) int {
		v := 1
		for i := 0; i < levels; i++ {
			v *= x
		}
		return v
	}
	stack := func(src *matrix.Matrix, rows, cols, p, q int) *matrix.Matrix {
		padded := matrix.New(rows, cols)
		matrix.PadInto(padded, src)
		st := matrix.New(pow(p*q)*(rows/pow(p)), cols/pow(q))
		bilinear.ToRecursiveInto(st, padded, p, q, levels, w, ar)
		return st
	}
	transform := func(tr *basis.Transform, v *matrix.Matrix) *matrix.Matrix {
		if tr == nil || tr.IsIdentity() || tr.ApplyInPlaceFrom(v, levels, w, ar) {
			return v
		}
		return tr.Apply(v, levels, w)
	}
	as := transform(alg.Phi, stack(a, pm, pk, s.M0, s.K0))
	bs := transform(alg.Psi, stack(b, pk, pn, s.K0, s.N0))
	cs := matrix.New(pow(s.DW())*(pm/pow(s.M0)), pn/pow(s.N0))
	bilinear.NewEngine(s, bilinear.Options{Workers: w}, levels).ExecIntoCancel(cs, as, bs, ar, nil, nil)
	if alg.Nu != nil {
		cs = transform(alg.Nu.Transposed(), cs)
	}
	full := matrix.New(pm, pn)
	bilinear.FromRecursiveInto(full, cs, s.M0, s.N0, levels, w, ar)
	c := matrix.New(a.Rows, b.Cols)
	matrix.CropInto(c, full)
	return c
}
