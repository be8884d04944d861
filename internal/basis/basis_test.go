package basis_test

import (
	"testing"

	"abmm/internal/algos"
	"abmm/internal/basis"
	"abmm/internal/bilinear"
	"abmm/internal/exact"
	"abmm/internal/matrix"
	"abmm/internal/pool"
)

func stacked(seed uint64, rows, cols int) *matrix.Matrix {
	m := matrix.New(rows, cols)
	m.FillUniform(matrix.Rand(seed), -1, 1)
	return m
}

func TestIdentityTransformIsNoop(t *testing.T) {
	id := basis.Identity(4)
	if !id.IsIdentity() {
		t.Fatal("Identity not IsIdentity")
	}
	in := stacked(1, 64, 8) // 4^2=16 blocks of 4 rows, 2 levels
	out := id.Apply(in, 2, 2)
	if !matrix.Equal(in, out) {
		t.Fatal("identity transform changed the operand")
	}
}

func TestTransformInverseRoundTrip(t *testing.T) {
	// The paper's φ from Appendix A (any invertible 4×4 works here).
	phi := basis.New("phi", exact.FromRows([][]int64{
		{0, 0, 1, 1},
		{0, 0, 0, 1},
		{-1, -1, 0, 0},
		{1, 0, 0, 1},
	}))
	inv, err := phi.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []int{0, 1, 2, 3} {
		rows := 8
		for i := 0; i < level; i++ {
			rows *= 4
		}
		in := stacked(uint64(level), rows, 16)
		fwd := phi.Apply(in, level, 3)
		back := inv.Apply(fwd, level, 3)
		if d := matrix.MaxAbsDiff(back, in); d > 1e-12 {
			t.Fatalf("level %d: φ⁻¹(φ(x)) differs by %g", level, d)
		}
	}
}

func TestTransformLinearity(t *testing.T) {
	phi := basis.New("phi", exact.FromRows([][]int64{
		{1, 1, 0, 0},
		{0, 1, 0, 1},
		{0, 0, 1, 0},
		{1, 0, 0, 1},
	}))
	x := stacked(5, 64, 4)
	y := stacked(6, 64, 4)
	sum := matrix.New(64, 4)
	matrix.LinearCombine(sum, []float64{1, 1}, []*matrix.Matrix{x, y}, 1)
	left := phi.Apply(sum, 2, 1)
	fx, fy := phi.Apply(x, 2, 1), phi.Apply(y, 2, 1)
	right := matrix.New(fx.Rows, fx.Cols)
	matrix.LinearCombine(right, []float64{1, 1}, []*matrix.Matrix{fx, fy}, 1)
	if d := matrix.MaxAbsDiff(left, right); d > 1e-12 {
		t.Fatalf("φ(x+y) != φ(x)+φ(y): %g", d)
	}
}

func TestTransformDimensionGrowth(t *testing.T) {
	// φ = U of Strassen: maps 4 dims into 7 (full decomposition).
	u := algos.Strassen().Spec.U
	phi := basis.New("phi=U", u)
	if phi.D1 != 4 || phi.D2 != 7 {
		t.Fatalf("dims %dx%d", phi.D1, phi.D2)
	}
	in := stacked(7, 16*2, 4) // 16 blocks of 2 rows at level 2
	out := phi.Apply(in, 2, 2)
	if out.Rows != 49*2 {
		t.Fatalf("grown operand has %d rows, want 98", out.Rows)
	}
}

func TestTransformMatchesMatrixDefinition(t *testing.T) {
	// One level: output group j must equal Σ_i φ_ij · input group i.
	phiM := exact.FromRows([][]int64{
		{1, 0, -1, 2},
		{0, 1, 1, 0},
		{1, 1, 0, 0},
		{0, 0, 1, 1},
	})
	phi := basis.New("phi", phiM)
	in := stacked(8, 16, 4) // 4 groups of 4 rows
	out := phi.Apply(in, 1, 1)
	f := phiM.Float64s()
	for j := 0; j < 4; j++ {
		want := matrix.New(4, 4)
		for i := 0; i < 4; i++ {
			for r := 0; r < 4; r++ {
				for c := 0; c < 4; c++ {
					want.Set(r, c, want.At(r, c)+f[i*4+j]*in.At(i*4+r, c))
				}
			}
		}
		if d := matrix.MaxAbsDiff(out.View(j*4, 0, 4, 4), want); d > 1e-13 {
			t.Fatalf("group %d differs by %g", j, d)
		}
	}
}

func TestTransposedTransform(t *testing.T) {
	m := exact.FromRows([][]int64{{1, 2}, {3, 4}})
	tr := basis.New("m", m).Transposed()
	if tr.M.At(0, 1).RatString() != "3" {
		t.Fatal("Transposed wrong")
	}
}

func TestTransformAdditions(t *testing.T) {
	// Paper's Appendix A φ has 7 nonzeros over 4 columns → 3 additions.
	phi := basis.New("phi", exact.FromRows([][]int64{
		{0, 0, 1, 1},
		{0, 0, 0, 1},
		{-1, -1, 0, 0},
		{1, 0, 0, 1},
	}))
	if phi.Additions() != 3 {
		t.Fatalf("Additions = %d, want 3", phi.Additions())
	}
	if basis.Identity(5).Additions() != 0 {
		t.Fatal("identity must cost no additions")
	}
}

func TestInverseRectangularFails(t *testing.T) {
	tr := basis.New("rect", exact.New(4, 7))
	if _, err := tr.Inverse(); err == nil {
		t.Fatal("rectangular inverse must fail")
	}
}

func TestApplyRejectsIndivisibleRows(t *testing.T) {
	phi := basis.Identity(4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	phi.Apply(matrix.New(10, 4), 2, 1) // 10 not divisible by 16
}

// TestFullDecompositionPipeline checks Claim III.13 end to end: running
// the fully decomposed Strassen through transforms + identity bilinear
// phase reproduces the product.
func TestFullDecompositionPipeline(t *testing.T) {
	fd, err := algos.FullDecomposition(algos.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	const n, levels = 32, 2
	a := stacked(10, n, n)
	b := stacked(11, n, n)
	as := bilinear.ToRecursive(a, 2, 2, levels, 2)
	bs := bilinear.ToRecursive(b, 2, 2, levels, 2)
	at := fd.Phi.Apply(as, levels, 2)
	bt := fd.Psi.Apply(bs, levels, 2)
	// The decomposed bilinear phase is the identity on R groups, so the
	// stacked product has Ã's shape.
	ct := matrix.New(at.Rows, bt.Cols)
	bilinear.NewEngine(fd.Spec, bilinear.Options{Workers: 2}, levels).ExecIntoCancel(ct, at, bt, pool.NewArena(), nil, nil)
	cs := fd.Nu.Transposed().Apply(ct, levels, 2)
	c := matrix.New(n, n)
	bilinear.FromRecursive(cs, c, 2, 2, levels, 2)
	want := matrix.New(n, n)
	matrix.MulNaive(want, a, b)
	if d := matrix.MaxAbsDiff(c, want); d > 1e-11 {
		t.Fatalf("full decomposition pipeline differs by %g", d)
	}
}
