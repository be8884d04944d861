package dist_test

import (
	"testing"

	"abmm/internal/algos"
	"abmm/internal/dist"
	"abmm/internal/matrix"
)

func refMul(a, b *matrix.Matrix) *matrix.Matrix {
	c := matrix.New(a.Rows, b.Cols)
	matrix.MulNaive(c, a, b)
	return c
}

func TestDistributedStrassenMatchesClassical(t *testing.T) {
	spec := algos.Strassen().Spec
	for _, procs := range []int{1, 7, 49} {
		for _, local := range []int{0, 1} {
			n := 392 // base blocks stay divisible by 49 at every depth used
			a, b := matrix.New(n, n), matrix.New(n, n)
			a.FillUniform(matrix.Rand(uint64(procs)), -1, 1)
			b.FillUniform(matrix.Rand(uint64(procs+1)), -1, 1)
			got, stats, err := dist.Multiply(spec, a, b, procs, dist.Options{LocalLevels: local})
			if err != nil {
				t.Fatalf("procs=%d local=%d: %v", procs, local, err)
			}
			if d := matrix.MaxAbsDiff(got, refMul(a, b)); d > 1e-11 {
				t.Errorf("procs=%d local=%d: diff %g", procs, local, d)
			}
			if procs == 1 && stats.Words != 0 {
				t.Errorf("single processor moved %d words", stats.Words)
			}
			if procs > 1 && stats.Words == 0 {
				t.Errorf("procs=%d: no communication recorded", procs)
			}
		}
	}
}

func TestDistributedClassicalAlgorithm(t *testing.T) {
	spec := algos.Classical(2, 2, 2).Spec // R = 8 → P ∈ {8, 64}
	a, b := matrix.New(128, 128), matrix.New(128, 128)
	a.FillUniform(matrix.Rand(3), -1, 1)
	b.FillUniform(matrix.Rand(4), -1, 1)
	got, stats, err := dist.Multiply(spec, a, b, 8, dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(got, refMul(a, b)); d > 1e-11 {
		t.Fatalf("diff %g", d)
	}
	if stats.Procs != 8 || stats.Messages == 0 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestDistributedRejectsBadProcCount(t *testing.T) {
	spec := algos.Strassen().Spec
	a, b := matrix.New(64, 64), matrix.New(64, 64)
	if _, _, err := dist.Multiply(spec, a, b, 6, dist.Options{}); err == nil {
		t.Fatal("P=6 accepted for R=7")
	}
}

func TestDistributedRejectsTinyBlocks(t *testing.T) {
	spec := algos.Strassen().Spec
	a, b := matrix.New(8, 8), matrix.New(8, 8)
	// 49 processors cannot slice 4-row base blocks.
	if _, _, err := dist.Multiply(spec, a, b, 49, dist.Options{}); err == nil {
		t.Fatal("indivisible block slicing accepted")
	}
}

func TestDistributedRejectsAltBasis(t *testing.T) {
	fd, err := algos.FullDecomposition(algos.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	a, b := matrix.New(64, 64), matrix.New(64, 64)
	if _, _, err := dist.Multiply(fd.Spec, a, b, 7, dist.Options{}); err == nil {
		t.Fatal("decomposed spec accepted")
	}
}

func TestDistributedCommunicationScaling(t *testing.T) {
	// The BFS strategy's per-processor bandwidth shrinks as P grows
	// (strong scaling): max words per proc at P=49 must be below P=7.
	spec := algos.Strassen().Spec
	n := 392
	a, b := matrix.New(n, n), matrix.New(n, n)
	a.FillUniform(matrix.Rand(5), -1, 1)
	b.FillUniform(matrix.Rand(6), -1, 1)
	_, s7, err := dist.Multiply(spec, a, b, 7, dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, s49, err := dist.Multiply(spec, a, b, 49, dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("P=7: %d words max/proc; P=49: %d words max/proc", s7.MaxWordsPerProc, s49.MaxWordsPerProc)
	if s49.MaxWordsPerProc >= s7.MaxWordsPerProc {
		t.Errorf("per-processor bandwidth did not shrink: %d → %d", s7.MaxWordsPerProc, s49.MaxWordsPerProc)
	}
}

func TestDistributedFastBeatsClassicalTraffic(t *testing.T) {
	// At equal processor counts the Strassen BFS moves fewer words in
	// total than the classical-as-bilinear BFS at the same depth would
	// relative to problem volume; compare total words per flop proxy.
	n := 448 // 448/2 = 224 divides by both 7 and 8
	a, b := matrix.New(n, n), matrix.New(n, n)
	a.FillUniform(matrix.Rand(7), -1, 1)
	b.FillUniform(matrix.Rand(8), -1, 1)
	_, sStrassen, err := dist.Multiply(algos.Strassen().Spec, a, b, 7, dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, sClassical, err := dist.Multiply(algos.Classical(2, 2, 2).Spec, a, b, 8, dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("strassen P=7: %d words; classical P=8: %d words", sStrassen.Words, sClassical.Words)
	if sStrassen.Words >= sClassical.Words {
		t.Errorf("Strassen BFS moved more data (%d) than classical BFS (%d)", sStrassen.Words, sClassical.Words)
	}
}

func TestDistributedRectangular(t *testing.T) {
	spec := algos.Classical(3, 2, 4).Spec // R = 24
	a, b := matrix.New(72, 48), matrix.New(48, 96)
	a.FillUniform(matrix.Rand(9), -1, 1)
	b.FillUniform(matrix.Rand(10), -1, 1)
	got, _, err := dist.Multiply(spec, a, b, 24, dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(got, refMul(a, b)); d > 1e-11 {
		t.Fatalf("rectangular distributed diff %g", d)
	}
}
