package algos_test

import (
	"testing"

	"abmm/internal/algos"
	"abmm/internal/bilinear"
	"abmm/internal/matrix"
	"abmm/internal/stability"
)

func TestComposeRowsValidates(t *testing.T) {
	alg, err := algos.ComposeRows(algos.Strassen(), algos.Classical(1, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if alg.Spec.M0 != 3 || alg.Spec.K0 != 2 || alg.Spec.N0 != 2 || alg.Spec.R != 11 {
		t.Fatalf("dims ⟨%d,%d,%d;%d⟩", alg.Spec.M0, alg.Spec.K0, alg.Spec.N0, alg.Spec.R)
	}
	if err := alg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestComposeColsValidates(t *testing.T) {
	alg, err := algos.ComposeCols(algos.Strassen(), algos.Classical(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if alg.Spec.N0 != 3 || alg.Spec.R != 11 {
		t.Fatalf("dims N0=%d R=%d", alg.Spec.N0, alg.Spec.R)
	}
	if err := alg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestComposeInnerValidates(t *testing.T) {
	alg, err := algos.ComposeInner(algos.Strassen(), algos.Classical(2, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if alg.Spec.K0 != 3 || alg.Spec.R != 11 {
		t.Fatalf("dims K0=%d R=%d", alg.Spec.K0, alg.Spec.R)
	}
	if err := alg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestComposeDimMismatchErrors(t *testing.T) {
	if _, err := algos.ComposeRows(algos.Strassen(), algos.Classical(1, 3, 2)); err == nil {
		t.Error("ComposeRows accepted mismatched K0")
	}
	if _, err := algos.ComposeCols(algos.Strassen(), algos.Classical(3, 2, 1)); err == nil {
		t.Error("ComposeCols accepted mismatched M0")
	}
	if _, err := algos.ComposeInner(algos.Strassen(), algos.Classical(3, 1, 2)); err == nil {
		t.Error("ComposeInner accepted mismatched M0")
	}
}

func TestComposeRejectsAltBasis(t *testing.T) {
	if _, err := algos.ComposeRows(algos.Ours(), algos.Classical(1, 2, 2)); err == nil {
		t.Error("alt-basis factor accepted")
	}
}

func TestHopcroftKerr223(t *testing.T) {
	alg := algos.HopcroftKerr223()
	if alg.Spec.R != 11 {
		t.Fatalf("R = %d, want the Hopcroft–Kerr rank 11", alg.Spec.R)
	}
	if err := alg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRect323EndToEnd(t *testing.T) {
	alg := algos.Rect323()
	if alg.Spec.R != 17 {
		t.Fatalf("R = %d, want 17 (< classical 18)", alg.Spec.R)
	}
	if err := alg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Multiply rectangular operands through the engine for two levels.
	a := matrix.New(45, 28)
	b := matrix.New(28, 63)
	a.FillUniform(matrix.Rand(1), -1, 1)
	b.FillUniform(matrix.Rand(2), -1, 1)
	got := bilinear.Multiply(alg.Spec, a, b, 2, bilinear.Options{Workers: 2})
	want := matrix.New(45, 63)
	matrix.MulNaive(want, a, b)
	if d := matrix.MaxAbsDiff(got, want); d > 1e-11 {
		t.Fatalf("rect323 multiply off by %g", d)
	}
}

func TestComposedDecompositionReducesAdds(t *testing.T) {
	// The Table II workflow on a composed rectangular algorithm with
	// shareable subexpressions (Winograd-based; Strassen-based
	// compositions have none, so their decomposition is a no-op).
	std, err := algos.ComposeCols(algos.Winograd(), algos.Classical(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	alt, err := algos.HigherDim(std, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := alt.Validate(); err != nil {
		t.Fatal(err)
	}
	if alt.Spec.TotalScheduledAdditions() >= std.Spec.TotalScheduledAdditions() {
		t.Errorf("decomposition did not reduce scheduled additions: %d vs %d",
			alt.Spec.TotalScheduledAdditions(), std.Spec.TotalScheduledAdditions())
	}
	if stability.Factor(alt).Cmp(stability.Factor(std)) != 0 {
		t.Error("stability factor changed")
	}
	// Strassen-based composition: no shareable pairs, decomposition is
	// an exact no-op.
	sd, err := algos.HigherDim(algos.Rect323(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if sd.Spec.DU() != algos.Rect323().Spec.DU() {
		t.Error("unexpected dimension growth for pair-free operators")
	}
}
