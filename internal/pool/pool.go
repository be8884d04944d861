// Package pool provides size-class recycled float64 scratch buffers for
// the recursive engines. Buffers are bucketed by the power-of-two size
// class of their capacity, so deep recursions reuse a handful of
// allocations instead of producing garbage proportional to the number
// of recursion nodes. Buffer contents are unspecified on reuse; callers
// must fully overwrite what they read.
package pool

import (
	"math/bits"
	"sync"
)

var classes [64]sync.Pool

// Get returns a float64 slice of length n backed by pooled storage.
func Get(n int) []float64 {
	if n == 0 {
		return nil
	}
	class := bits.Len(uint(n - 1))
	if v := classes[class].Get(); v != nil {
		return v.([]float64)[:n]
	}
	// Cold miss: the buffer is allocated once, then recycled through
	// Put until a GC empties the class.
	//abmm:allow hotpath-alloc
	return make([]float64, n, 1<<class)
}

// Put returns a buffer obtained from Get to its size-class pool.
func Put(buf []float64) {
	c := cap(buf)
	if c == 0 {
		return
	}
	class := bits.Len(uint(c)) - 1
	if 1<<class != c {
		return // not a pool-shaped buffer; let the GC have it
	}
	classes[class].Put(buf[:0:c])
}
