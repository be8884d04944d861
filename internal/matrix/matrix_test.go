package matrix

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewAndAt(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || m.Stride != 4 || len(m.Data) != 12 {
		t.Fatalf("unexpected shape: %+v", m)
	}
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 || m.Data[6] != 5 {
		t.Fatal("Set/At mismatch")
	}
}

func TestFromRowsAndEqual(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	n := FromSlice(2, 2, []float64{1, 2, 3, 4})
	if !Equal(m, n) {
		t.Fatal("FromRows != FromSlice for same data")
	}
	n.Set(0, 0, 9)
	if Equal(m, n) {
		t.Fatal("Equal ignored a differing element")
	}
	if Equal(m, New(2, 3)) {
		t.Fatal("Equal ignored shape mismatch")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer expectPanic(t, "ragged rows")
	FromRows([][]float64{{1, 2}, {3}})
}

func TestFromSliceLengthPanics(t *testing.T) {
	defer expectPanic(t, "short slice")
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestViewAliasesStorage(t *testing.T) {
	m := New(4, 4)
	v := m.View(1, 1, 2, 2)
	v.Set(0, 0, 7)
	if m.At(1, 1) != 7 {
		t.Fatal("view write not visible in parent")
	}
	if v.Stride != m.Stride {
		t.Fatal("view must inherit parent stride")
	}
	if v.IsContiguous() {
		t.Fatal("interior view reported contiguous")
	}
}

func TestViewBoundsPanics(t *testing.T) {
	m := New(4, 4)
	defer expectPanic(t, "out-of-bounds view")
	m.View(2, 2, 3, 3)
}

func TestCloneIndependence(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("clone shares storage")
	}
}

func TestCopyIntoStridedViews(t *testing.T) {
	src := New(4, 4)
	src.FillUniform(Rand(1), -1, 1)
	dst := New(6, 6)
	CopyInto(dst.View(1, 1, 4, 4), src)
	if MaxAbsDiff(dst.View(1, 1, 4, 4), src) != 0 {
		t.Fatal("strided CopyInto lost data")
	}
	if dst.At(0, 0) != 0 || dst.At(5, 5) != 0 {
		t.Fatal("CopyInto wrote outside the view")
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.Transpose()
	if mt.Rows != 3 || mt.Cols != 2 {
		t.Fatal("transpose shape")
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			// Transpose copies elements verbatim: identical bits.
			//abmm:allow float-discipline
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("transpose value at %d,%d", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		m := New(int(seed%7)+1, int(seed%5)+1)
		m.FillUniform(Rand(seed), -1, 1)
		return Equal(m, m.Transpose().Transpose())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIdentityAndFill(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			// Identity stores exactly 0 and 1.
			//abmm:allow float-discipline
			if id.At(i, j) != want {
				t.Fatal("identity wrong")
			}
		}
	}
	id.Fill(2)
	if id.At(0, 1) != 2 {
		t.Fatal("fill wrong")
	}
	id.Zero()
	if id.MaxNorm() != 0 {
		t.Fatal("zero wrong")
	}
}

func TestZeroOnView(t *testing.T) {
	m := New(4, 4)
	m.Fill(3)
	m.View(1, 1, 2, 2).Zero()
	if m.At(1, 1) != 0 || m.At(2, 2) != 0 {
		t.Fatal("view not zeroed")
	}
	if m.At(0, 0) != 3 || m.At(3, 3) != 3 || m.At(1, 3) != 3 {
		t.Fatal("zero escaped the view")
	}
}

func TestStringForms(t *testing.T) {
	small := New(2, 2)
	if small.String() == "" {
		t.Fatal("empty String for small matrix")
	}
	large := New(100, 100)
	if got := large.String(); got != "Matrix(100x100)" {
		t.Fatalf("large String = %q", got)
	}
}

func expectPanic(t *testing.T, what string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("expected panic: %s", what)
	}
}

func TestMaxNorm(t *testing.T) {
	m := FromRows([][]float64{{3, -4}, {0, 0}})
	if m.MaxNorm() != 4 {
		t.Fatalf("MaxNorm = %v", m.MaxNorm())
	}
}

func TestDiffMeasures(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{1, 2.5}, {3, 4}})
	if MaxAbsDiff(a, b) != 0.5 {
		t.Fatal("MaxAbsDiff")
	}
	if got := MaxRelDiff(a, b); math.Abs(got-0.2) > 1e-15 {
		t.Fatalf("MaxRelDiff = %v", got)
	}
	if MaxRelDiff(a, a) != 0 {
		t.Fatal("MaxRelDiff of equal matrices")
	}
}

func TestRowColMax(t *testing.T) {
	m := FromRows([][]float64{{1, -5}, {2, 3}})
	rm := m.AbsRowMax()
	if rm[0] != 5 || rm[1] != 3 {
		t.Fatalf("AbsRowMax = %v", rm)
	}
	cm := m.AbsColMax()
	if cm[0] != 2 || cm[1] != 5 {
		t.Fatalf("AbsColMax = %v", cm)
	}
}
