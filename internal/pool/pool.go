// Package pool provides recycled float64 scratch memory. Arena is the
// one scratch type of the execution layers: every kernel, transform and
// recursion call draws from the execution's arena, whose free lists make
// a warm execution allocation-free. Arena.Mat pads rows that are a
// whole number of 2 KiB by one cache line, so callers address its
// matrices through Stride and never assume contiguity; the arena keeps
// buffers longer than 2^16 floats by exact length and shorter ones by
// power-of-two size class. Get and Put are process-wide size-class
// pools for buffers that outlive any one execution (the serving layer's
// operands and products), bucketed by the power-of-two class of their
// capacity. Contents are unspecified on reuse, so callers must fully
// overwrite what they read.
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
