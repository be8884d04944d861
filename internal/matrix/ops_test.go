package matrix

import (
	"testing"
	"testing/quick"
)

func randMat(seed uint64, r, c int) *Matrix {
	m := New(r, c)
	m.FillUniform(Rand(seed), -1, 1)
	return m
}

func TestAddSubScale(t *testing.T) {
	for _, workers := range []int{1, 4} {
		a := randMat(1, 33, 17)
		b := randMat(2, 33, 17)
		sum := New(33, 17)
		LinearCombine(sum, []float64{1, 1}, []*Matrix{a, b}, workers)
		diff := New(33, 17)
		LinearCombine(diff, []float64{1, -1}, []*Matrix{sum, b}, workers)
		if MaxAbsDiff(diff, a) != 0 {
			t.Fatal("(a+b)-b != a exactly")
		}
		tw := New(33, 17)
		LinearCombine(tw, []float64{2}, []*Matrix{a}, workers)
		LinearCombine(tw, []float64{1, -1}, []*Matrix{tw, a}, workers) // in-place aliasing
		if MaxAbsDiff(tw, a) != 0 {
			t.Fatal("2a-a != a")
		}
		LinearCombine(tw, []float64{1, -1}, []*Matrix{tw, a}, workers)
		if tw.MaxNorm() != 0 {
			t.Fatal("in-place a-a did not cancel")
		}
	}
}

func TestOpsOnViews(t *testing.T) {
	base := randMat(3, 8, 8)
	a := base.View(1, 1, 4, 4)
	b := randMat(4, 4, 4)
	out := New(4, 4)
	LinearCombine(out, []float64{1, 1}, []*Matrix{a, b}, 2)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			// Unit coefficients perform the same single fl(a+b) per
			// element.
			//abmm:allow float-discipline
			if out.At(i, j) != a.At(i, j)+b.At(i, j) {
				t.Fatal("LinearCombine wrong on strided view")
			}
		}
	}
}

func TestOpsShapePanics(t *testing.T) {
	a, b := New(2, 2), New(2, 3)
	for name, fn := range map[string]func(){
		"LinearCombine": func() { LinearCombine(New(2, 3), []float64{1, 2}, []*Matrix{b, a}, 1) },
		"ScaleRows":     func() { ScaleRows(a, a, []float64{1}, 1) },
		"ScaleCols":     func() { ScaleCols(a, a, []float64{1, 2, 3}, 1) },
		"MulAdd":        func() { MulAdd(New(2, 2), a, b.Transpose(), 1) },
		"CopyInto":      func() { CopyInto(a, b) },
		"MaxAbsDiff":    func() { MaxAbsDiff(a, b) },
	} {
		func() {
			defer expectPanic(t, name+" shape mismatch")
			fn()
		}()
	}
}

func TestLinearCombine(t *testing.T) {
	a := randMat(5, 16, 16)
	b := randMat(6, 16, 16)
	c := randMat(7, 16, 16)
	got := New(16, 16)
	LinearCombine(got, []float64{1, -1, 0.5}, []*Matrix{a, b, c}, 2)
	want := New(16, 16)
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			want.Set(i, j, a.At(i, j)-b.At(i, j)+0.5*c.At(i, j))
		}
	}
	if MaxAbsDiff(got, want) != 0 {
		t.Fatal("LinearCombine mismatch")
	}
}

func TestLinearCombineSkipsZeros(t *testing.T) {
	a := randMat(8, 4, 4)
	got := New(4, 4)
	// The zero-coefficient source has the wrong shape: it must be
	// skipped before shape checking of used terms only.
	LinearCombine(got, []float64{0, 1}, []*Matrix{New(9, 9), a}, 1)
	if MaxAbsDiff(got, a) != 0 {
		t.Fatal("single unit term should copy")
	}
}

func TestLinearCombineAllZeroClearsDst(t *testing.T) {
	got := randMat(9, 4, 4)
	LinearCombine(got, []float64{0, 0}, []*Matrix{got, got}, 1)
	if got.MaxNorm() != 0 {
		t.Fatal("all-zero combine must zero dst")
	}
}

func TestLinearCombineNegFirstTerm(t *testing.T) {
	a := randMat(10, 4, 4)
	got := New(4, 4)
	LinearCombine(got, []float64{-1}, []*Matrix{a}, 1)
	want := New(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want.Set(i, j, -a.At(i, j))
		}
	}
	if MaxAbsDiff(got, want) != 0 {
		t.Fatal("leading -1 term wrong")
	}
}

func TestLinearCombineLengthPanics(t *testing.T) {
	defer expectPanic(t, "length mismatch")
	LinearCombine(New(2, 2), []float64{1}, nil, 1)
}

func TestScaleRowsCols(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	out := New(2, 2)
	ScaleRows(out, a, []float64{2, 3}, 1)
	if out.At(0, 1) != 4 || out.At(1, 0) != 9 {
		t.Fatal("ScaleRows wrong")
	}
	ScaleCols(out, a, []float64{2, 3}, 1)
	if out.At(0, 1) != 6 || out.At(1, 0) != 6 {
		t.Fatal("ScaleCols wrong")
	}
}

func TestAddCommutesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r, c := int(seed%13)+1, int(seed%11)+1
		a, b := randMat(seed, r, c), randMat(seed+1, r, c)
		x, y := New(r, c), New(r, c)
		LinearCombine(x, []float64{1, 1}, []*Matrix{a, b}, 3)
		LinearCombine(y, []float64{1, 1}, []*Matrix{b, a}, 3)
		return Equal(x, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
