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
