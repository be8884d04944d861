package basis_test

import (
	"testing"

	"abmm/internal/algos"
	"abmm/internal/basis"
	"abmm/internal/exact"
	"abmm/internal/matrix"
)

func catalogTransforms(t *testing.T) []*basis.Transform {
	t.Helper()
	var out []*basis.Transform
	for _, alg := range []*algos.Algorithm{algos.Ours(), algos.AltWinograd(), algos.LadermanAlt()} {
		out = append(out, alg.Phi, alg.Psi, alg.Nu, alg.Nu.Transposed())
	}
	return out
}

func TestApplyInPlaceMatchesApply(t *testing.T) {
	for _, tr := range catalogTransforms(t) {
		if !tr.CanApplyInPlace() {
			t.Fatalf("%s: catalog transform not in-place compilable", tr.Name)
		}
		// Groups of 8 rows × 12 columns are whole multiples of the
		// vector width; groups of 3 × 13 end every row combination in
		// the scalar tail.
		for _, sh := range [][2]int{{8, 12}, {3, 13}} {
			for _, level := range []int{0, 1, 2} {
				rows := sh[0]
				for i := 0; i < level; i++ {
					rows *= tr.D1
				}
				in := matrix.New(rows, sh[1])
				in.FillUniform(matrix.Rand(uint64(level+rows)), -1, 1)
				want := tr.Apply(in, level, 2)
				for _, workers := range []int{1, 2} {
					got := in.Clone()
					if !tr.ApplyInPlace(got, level, workers) {
						t.Fatalf("%s: ApplyInPlace refused", tr.Name)
					}
					if d := matrix.MaxAbsDiff(got, want); d > 1e-13 {
						t.Fatalf("%s %dx%d level %d workers %d: in-place differs by %g",
							tr.Name, rows, sh[1], level, workers, d)
					}
				}
			}
		}
	}
}

func TestApplyInPlaceRejectsRectangular(t *testing.T) {
	tr := basis.New("rect", exact.New(4, 7))
	if tr.CanApplyInPlace() {
		t.Fatal("rectangular transform claims in-place support")
	}
	v := matrix.New(16, 4)
	if tr.ApplyInPlace(v, 1, 1) {
		t.Fatal("rectangular in-place applied")
	}
}

func TestApplyInPlaceRejectsSingular(t *testing.T) {
	tr := basis.New("singular", exact.FromRows([][]int64{{1, 1}, {1, 1}}))
	if tr.CanApplyInPlace() {
		t.Fatal("singular transform claims in-place support")
	}
}

func TestApplyInPlaceWithSwapsAndScales(t *testing.T) {
	// A permutation with a scaling by 2 (coefficients in H = {0, ±2^i}).
	m := exact.FromRows([][]int64{
		{0, 2, 0},
		{1, 0, 0},
		{0, 0, -1},
	})
	tr := basis.New("permscale", m)
	if !tr.CanApplyInPlace() {
		t.Fatal("perm+scale transform should be in-place compilable")
	}
	in := matrix.New(27, 5)
	in.FillUniform(matrix.Rand(3), -1, 1)
	want := tr.Apply(in, 3, 1)
	got := in.Clone()
	tr.ApplyInPlace(got, 3, 1)
	if d := matrix.MaxAbsDiff(got, want); d != 0 {
		t.Fatalf("in-place perm/scale differs by %g", d)
	}
}

func TestApplyInPlaceIdentityUntouched(t *testing.T) {
	tr := basis.Identity(4)
	v := matrix.New(16, 3)
	v.FillUniform(matrix.Rand(9), -1, 1)
	orig := v.Clone()
	if !tr.ApplyInPlace(v, 2, 1) {
		t.Fatal("identity not in-place compilable")
	}
	if !matrix.Equal(v, orig) {
		t.Fatal("identity in-place changed data")
	}
}
