// Package parallel provides lightweight shared-memory parallelism
// primitives used throughout the library: a grain-controlled parallel
// for-loop for flat linear-algebra kernels and the non-blocking poll
// of a done channel that the recursions cancel on.
//
// The design mirrors the OpenMP usage in the paper's reference
// implementation: linear combinations (matrix additions, basis
// transformations) are parallelized as flat loops over row blocks,
// while the recursive bilinear phase runs the top node's products
// concurrently on the same for-loop and recurses depth-first below
// it.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the default degree of parallelism,
// runtime.GOMAXPROCS(0).
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Resolve maps a requested worker count to an effective one: any value
// <= 0 selects DefaultWorkers. It is the single worker-resolution rule
// shared by every Options struct in the library, so a configuration is
// resolved exactly once (at plan compilation) and the resolved count is
// what flows through the execution layers.
func Resolve(workers int) int {
	if workers <= 0 {
		return DefaultWorkers()
	}
	return workers
}

// For runs body(i) for every i in [0, n) using up to workers goroutines.
// Iterations are distributed in contiguous chunks of at least grain
// iterations to amortize scheduling overhead and preserve spatial
// locality. If workers <= 1, n <= grain, or n is small, the loop runs
// sequentially on the calling goroutine.
func For(n, workers, grain int, body func(i int)) {
	ForChunks(n, workers, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForChunks partitions [0, n) into contiguous chunks of at least grain
// iterations and runs body(lo, hi) for each chunk using up to workers
// goroutines. The caller's goroutine participates, so ForChunks never
// deadlocks when invoked from inside another ForChunks body.
func ForChunks(n, workers, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	if workers < 1 {
		workers = DefaultWorkers()
	}
	chunks := (n + grain - 1) / grain
	if workers > chunks {
		workers = chunks
	}
	if workers == 1 {
		body(0, n)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	worker := func() {
		for {
			c := int(next.Add(1)) - 1
			if c >= chunks {
				return
			}
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			body(lo, hi)
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	worker()
	wg.Wait()
}

// Canceled reports whether done is closed: a non-blocking receive, the
// poll the bilinear recursion makes at every node boundary and the
// plan makes between pipeline stages. A nil done never fires, so
// uncancelable call sites pass nil and pay one select. Callers pass a
// context's Done channel rather than the context itself: the library's
// MultiplyInto has no caller context, and a nil channel is Go's
// "never".
func Canceled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}
