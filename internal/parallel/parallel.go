// Package parallel provides lightweight shared-memory parallelism
// primitives used throughout the library: a grain-controlled parallel
// for-loop for flat linear-algebra kernels and a cooperative
// cancellation token for the recursions.
//
// The design mirrors the OpenMP usage in the paper's reference
// implementation: linear combinations (matrix additions, basis
// transformations) are parallelized as flat loops over row blocks,
// while the recursive bilinear phase runs the top node's products
// concurrently on the same for-loop and recurses depth-first below
// it.
package parallel

import (
	"context"
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

// Cancel is a cooperative cancellation token for recursive kernels. The
// execution layers poll Canceled at recursion-node boundaries and
// abandon the remaining subtree when it reports true, so an abandoned
// request stops consuming CPU within about one base-case multiplication
// rather than running to completion. A nil *Cancel is valid and never
// canceled: the uncancelable warm path pays one nil check per recursion
// node and nothing else.
//
// Cancel deliberately does not wrap context.Context: a context's Err
// takes a mutex in the cancellable implementations, while Canceled is a
// single atomic load, cheap enough to poll from every recursion node.
// Use WatchContext to bridge from a context.
type Cancel struct {
	flag atomic.Bool
}

// NewCancel returns a token in the not-canceled state.
func NewCancel() *Cancel { return &Cancel{} }

// Set moves the token to the canceled state. It is safe to call from
// any goroutine, repeatedly, and on a nil receiver (a no-op).
func (c *Cancel) Set() {
	if c != nil {
		c.flag.Store(true)
	}
}

// Canceled reports whether Set has been called. A nil receiver reports
// false, so uncancelable call sites pass nil and pay only the check.
func (c *Cancel) Canceled() bool { return c != nil && c.flag.Load() }

// WatchContext couples a fresh Cancel to ctx: when ctx is done the
// token is Set. The returned stop function releases the watcher (like
// context.AfterFunc's stop) and must be called to avoid holding the
// context's callback list; it does not un-cancel the token.
func WatchContext(ctx context.Context) (*Cancel, func() bool) {
	cn := NewCancel()
	stop := context.AfterFunc(ctx, cn.Set)
	return cn, stop
}
