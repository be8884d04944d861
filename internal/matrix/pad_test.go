package matrix

import "testing"

func TestPadCropRoundTrip(t *testing.T) {
	m := randMat(5, 5, 7)
	p := New(8, 8)
	p.Fill(3) // dirty scratch: PadInto must overwrite the border
	PadInto(p, m)
	if p.At(7, 7) != 0 || p.At(0, 7) != 0 || p.At(5, 0) != 0 {
		t.Fatal("padding not zero")
	}
	back := New(5, 7)
	CropInto(back, p)
	if !Equal(back, m) {
		t.Fatal("pad/crop round trip lost data")
	}
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
