package pool

import (
	"testing"
	"testing/quick"
)

func TestGetLengthAndCapacity(t *testing.T) {
	f := func(n uint16) bool {
		buf := Get(int(n))
		if len(buf) != int(n) {
			return false
		}
		if n > 0 && cap(buf) < int(n) {
			return false
		}
		Put(buf)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGetZero(t *testing.T) {
	if buf := Get(0); buf != nil {
		t.Fatal("Get(0) should be nil")
	}
	Put(nil) // must not panic
}

func TestReuseRoundTrip(t *testing.T) {
	// A released buffer of a size class should be reused for requests
	// in the same class (best-effort: sync.Pool may drop it, so only
	// assert correctness, not identity).
	a := Get(1000)
	for i := range a {
		a[i] = float64(i)
	}
	Put(a)
	b := Get(900)
	if len(b) != 900 {
		t.Fatalf("len %d", len(b))
	}
	// Contents are unspecified; must still be writable over full range.
	for i := range b {
		b[i] = -1
	}
	Put(b)
}

func TestPutForeignBufferIgnored(t *testing.T) {
	// Non-power-of-two capacity buffers are not pooled; must not panic.
	Put(make([]float64, 3, 7))
}

func TestArenaCounters(t *testing.T) {
	a := NewArena()
	b1 := a.Floats(100) // class 128 → 1024 B, fresh
	b2 := a.Floats(100) // second simultaneous buffer, fresh
	c := a.Counters()
	if c.AllocBytes != 2048 || c.RequestedBytes != 2048 || c.ReusedBytes != 0 {
		t.Fatalf("after two fresh checkouts: %+v", c)
	}
	if c.LiveBytes != 2048 || c.HighWaterBytes != 2048 {
		t.Fatalf("live accounting: %+v", c)
	}
	a.PutFloats(b1)
	a.PutFloats(b2)
	b3 := a.Floats(120) // same class, must reuse
	c = a.Counters()
	if c.AllocBytes != 2048 {
		t.Fatalf("reuse should not allocate: %+v", c)
	}
	if c.ReusedBytes != 1024 || c.RequestedBytes != 3072 {
		t.Fatalf("reuse accounting: %+v", c)
	}
	if c.LiveBytes != 1024 || c.HighWaterBytes != 2048 {
		t.Fatalf("high-water should persist after release: %+v", c)
	}
	a.PutFloats(b3)
}

// TestArenaMatStride pins the stride rule of Mat: rows that are a
// whole number of 2 KiB are padded by one cache line, narrower rows and
// single rows stay contiguous.
func TestArenaMatStride(t *testing.T) {
	a := NewArena()
	for _, tc := range []struct{ r, c, stride int }{
		{512, 512, 520},
		{64, 256, 264},
		{2048, 1024, 1032},
		{64, 64, 64},
		{1000, 1000, 1000},
		{3, 768, 776},
		{1, 512, 512},
		{0, 512, 512},
		{7, 0, 0},
	} {
		m := a.Mat(tc.r, tc.c)
		if m.Rows != tc.r || m.Cols != tc.c || m.Stride != tc.stride {
			t.Errorf("Mat(%d, %d): %dx%d stride %d, want stride %d", tc.r, tc.c, m.Rows, m.Cols, m.Stride, tc.stride)
		}
		if len(m.Data) != tc.r*tc.stride {
			t.Errorf("Mat(%d, %d): %d elements of storage, want %d", tc.r, tc.c, len(m.Data), tc.r*tc.stride)
		}
		if tc.stride == tc.c && !m.IsContiguous() {
			t.Errorf("Mat(%d, %d) should be contiguous", tc.r, tc.c)
		}
		a.PutMat(m)
	}
}

// TestArenaExactLength pins the accounting of buffers longer than
// maxClassLen: they are counted at 8·n bytes, a returned one serves the
// next request of its own length and never one of another, and small
// buffers keep their power-of-two classes.
func TestArenaExactLength(t *testing.T) {
	const n = 512 * 520 // a padded 512² block
	a := NewArena()
	b1 := a.Floats(n)
	if len(b1) != n || cap(b1) != n {
		t.Fatalf("Floats(%d): len %d cap %d, want both %d", n, len(b1), cap(b1), n)
	}
	c := a.Counters()
	if c != (Counters{AllocBytes: 8 * n, RequestedBytes: 8 * n, LiveBytes: 8 * n, HighWaterBytes: 8 * n}) {
		t.Fatalf("after one fresh exact checkout: %+v", c)
	}
	a.PutFloats(b1)
	// A longer request must not take the shorter free buffer, and once
	// both are free a request of n takes its own length, not the longer
	// one returned last.
	b2 := a.Floats(n + 1)
	if cap(b2) != n+1 || &b2[0] == &b1[0] {
		t.Fatalf("Floats(%d) was served the returned %d-element buffer", n+1, n)
	}
	a.PutFloats(b2)
	b3 := a.Floats(n)
	if &b3[0] != &b1[0] {
		t.Fatalf("Floats(%d) did not reuse the returned buffer of its length", n)
	}
	c = a.Counters()
	want := Counters{
		AllocBytes:     8 * (2*n + 1),
		RequestedBytes: 8 * (3*n + 1),
		ReusedBytes:    8 * n,
		LiveBytes:      8 * n,
		HighWaterBytes: 8 * (n + 1),
	}
	if c != want {
		t.Fatalf("exact accounting: got %+v, want %+v", c, want)
	}
	a.PutFloats(b3)
	if c = a.Counters(); c.LiveBytes != 0 || c.HighWaterBytes != want.HighWaterBytes {
		t.Fatalf("after returning everything: %+v", c)
	}
	// Up to maxClassLen the classes stand: maxClassLen itself is a
	// class, and a shorter request of that class reuses it.
	s1 := a.Floats(maxClassLen)
	if cap(s1) != maxClassLen {
		t.Fatalf("Floats(maxClassLen): cap %d", cap(s1))
	}
	a.PutFloats(s1)
	s2 := a.Floats(maxClassLen/2 + 1)
	if cap(s2) != maxClassLen || &s2[0] != &s1[0] {
		t.Fatalf("Floats(%d) did not reuse the class-%d buffer", maxClassLen/2+1, maxClassLen)
	}
	a.PutFloats(s2)
}
