package matrix

import "testing"

func TestPadCropRoundTrip(t *testing.T) {
	m := randMat(5, 5, 7)
	p := m.PadTo(8, 8)
	if p.Rows != 8 || p.Cols != 8 {
		t.Fatal("pad shape")
	}
	if p.At(7, 7) != 0 || p.At(0, 7) != 0 {
		t.Fatal("padding not zero")
	}
	back := p.CropTo(5, 7)
	if !Equal(back, m) {
		t.Fatal("pad/crop round trip lost data")
	}
}

func TestPadToNoopReturnsSame(t *testing.T) {
	m := New(4, 4)
	if m.PadTo(4, 4) != m {
		t.Fatal("no-op pad must not copy")
	}
	if m.CropTo(4, 4) != m {
		t.Fatal("no-op crop must not copy")
	}
}

func TestPadToSmallerPanics(t *testing.T) {
	defer expectPanic(t, "pad smaller")
	New(4, 4).PadTo(3, 4)
}

func TestCropToLargerPanics(t *testing.T) {
	defer expectPanic(t, "crop larger")
	New(4, 4).CropTo(5, 4)
}

func TestPadShape(t *testing.T) {
	pm, pk, pn := PadShape(100, 100, 100, 2, 2, 2, 3)
	if pm != 104 || pk != 104 || pn != 104 {
		t.Fatalf("PadShape = %d,%d,%d", pm, pk, pn)
	}
	pm, pk, pn = PadShape(10, 9, 8, 3, 3, 3, 2)
	if pm != 18 || pk != 9 || pn != 9 {
		t.Fatalf("PadShape base 3 = %d,%d,%d", pm, pk, pn)
	}
	// l = 0: no padding needed.
	pm, pk, pn = PadShape(7, 11, 13, 2, 2, 2, 0)
	if pm != 7 || pk != 11 || pn != 13 {
		t.Fatalf("PadShape l=0 = %d,%d,%d", pm, pk, pn)
	}
}
