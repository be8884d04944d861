package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 64, 65, 1000} {
		for _, workers := range []int{1, 2, 7, 32} {
			for _, grain := range []int{1, 3, 64} {
				seen := make([]int32, n)
				For(n, workers, grain, func(i int) {
					atomic.AddInt32(&seen[i], 1)
				})
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("n=%d workers=%d grain=%d: index %d visited %d times", n, workers, grain, i, c)
					}
				}
			}
		}
	}
}

func TestForChunksPartition(t *testing.T) {
	// Chunks must be disjoint, cover [0,n), and respect the grain.
	check := func(n, workers, grain int) bool {
		if n < 0 {
			n = -n
		}
		n %= 500
		workers = workers%8 + 1
		grain = grain%16 + 1
		var mu sync.Mutex
		covered := make([]bool, n)
		ForChunks(n, workers, grain, func(lo, hi int) {
			if lo >= hi {
				t.Errorf("empty chunk [%d,%d)", lo, hi)
			}
			mu.Lock()
			defer mu.Unlock()
			for i := lo; i < hi; i++ {
				if covered[i] {
					t.Errorf("index %d covered twice", i)
				}
				covered[i] = true
			}
		})
		for i, c := range covered {
			if !c {
				t.Errorf("index %d not covered", i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestForSequentialWhenSingleWorker(t *testing.T) {
	// With workers=1 the body must run on the calling goroutine in
	// order; verify ordering.
	var order []int
	For(100, 1, 10, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential run out of order at %d: %d", i, v)
		}
	}
}

func TestForZeroAndNegativeN(t *testing.T) {
	ran := false
	ForChunks(0, 4, 1, func(lo, hi int) { ran = true })
	ForChunks(-5, 4, 1, func(lo, hi int) { ran = true })
	if ran {
		t.Fatal("body ran for n <= 0")
	}
}

func TestCanceled(t *testing.T) {
	if Canceled(nil) {
		t.Fatal("nil done reported canceled")
	}
	done := make(chan struct{})
	if Canceled(done) {
		t.Fatal("open done reported canceled")
	}
	close(done)
	if !Canceled(done) || !Canceled(done) {
		t.Fatal("closed done not reported canceled on every poll")
	}
}
