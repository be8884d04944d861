package pool

import (
	"math/bits"
	"sync"

	"abmm/internal/matrix"
)

// Arena is the scratch memory of the execution layers (kernel, basis
// transforms, bilinear engine, core pipeline). Floats, Mat, Hdr and
// Mats hand out float64 buffers, matrices with arena storage, blank
// headers for views and pointer slices; the caller returns each through
// its Put twin (PutHdr and PutMats never release what they point to).
// Contents are unspecified; callers must fully overwrite what they read.
//
// An Arena keeps free lists of everything it has handed out, so after
// the first (warming) execution of a fixed-shape plan, repeated
// executions allocate nothing. It is safe for concurrent use (the
// engine's top-step fan-out draws every product subtree's scratch from
// the execution's one arena), but it is designed to be owned by one
// execution at a time and pooled across executions by core.Plan.
// One-shot entry points (basis.Apply, bilinear.ToRecursive, dist's
// leaf step, the classical multiply) draw from a fresh NewArena per
// call.
type Arena struct {
	mu sync.Mutex
	// floats[c] holds free buffers with capacity exactly 1<<c.
	floats [64][][]float64
	// hdrs holds free matrix headers (also used as the backing for Mat).
	hdrs []*matrix.Matrix
	// mats[c] holds free pointer slices with capacity exactly 1<<c.
	mats [64][][]*matrix.Matrix
	// bytes is the total float64 storage ever allocated by this arena.
	bytes int64
	// reused/requested count float64 bytes served from a warm free list
	// and total float64 bytes handed out, over the arena's lifetime.
	reused    int64
	requested int64
	// live/liveHW track currently-outstanding float64 bytes and their
	// high-water mark.
	live   int64
	liveHW int64
}

// NewArena returns an empty workspace.
func NewArena() *Arena { return &Arena{} }

// Bytes reports the total float64 scratch (in bytes) this arena has
// allocated over its lifetime — in steady state, the plan's resident
// workspace footprint.
func (a *Arena) Bytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.bytes
}

// Counters is the scalar, allocation-free view of an arena's traffic.
type Counters struct {
	// AllocBytes is the lifetime float64 storage allocated (== Bytes).
	AllocBytes int64
	// RequestedBytes is the lifetime float64 scratch handed out;
	// ReusedBytes the portion served from warm free lists. Their
	// difference is AllocBytes.
	RequestedBytes int64
	ReusedBytes    int64
	// LiveBytes is the float64 scratch currently checked out;
	// HighWaterBytes its lifetime peak — the true simultaneous
	// workspace requirement, as opposed to AllocBytes which also counts
	// fragmentation across size classes.
	LiveBytes      int64
	HighWaterBytes int64
}

// Counters returns the arena's scalar traffic counters.
func (a *Arena) Counters() Counters {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Counters{
		AllocBytes:     a.bytes,
		RequestedBytes: a.requested,
		ReusedBytes:    a.reused,
		LiveBytes:      a.live,
		HighWaterBytes: a.liveHW,
	}
}

//abmm:hotpath
func (a *Arena) Floats(n int) []float64 {
	if n == 0 {
		return nil
	}
	class := bits.Len(uint(n - 1))
	size := int64(8) << class
	a.mu.Lock()
	a.requested += size
	a.live += size
	if a.live > a.liveHW {
		a.liveHW = a.live
	}
	if l := len(a.floats[class]); l > 0 {
		buf := a.floats[class][l-1]
		a.floats[class] = a.floats[class][:l-1]
		a.reused += size
		a.mu.Unlock()
		return buf[:n]
	}
	a.bytes += size
	a.mu.Unlock()
	// Cold miss: the arena grows once per size class, then recycles.
	//abmm:allow hotpath-alloc
	return make([]float64, n, 1<<class)
}

//abmm:hotpath
func (a *Arena) PutFloats(buf []float64) {
	c := cap(buf)
	if c == 0 {
		return
	}
	class := bits.Len(uint(c)) - 1
	if 1<<class != c {
		return // not arena-shaped; let the GC have it
	}
	a.mu.Lock()
	// The free list reaches its high-water length during warmup and
	// then stops growing: every append after that reuses capacity.
	//abmm:allow hotpath-alloc
	a.floats[class] = append(a.floats[class], buf[:c])
	a.live -= int64(8) << class
	a.mu.Unlock()
}

//abmm:hotpath
func (a *Arena) Hdr() *matrix.Matrix {
	a.mu.Lock()
	if l := len(a.hdrs); l > 0 {
		h := a.hdrs[l-1]
		a.hdrs = a.hdrs[:l-1]
		a.mu.Unlock()
		return h
	}
	a.mu.Unlock()
	// Cold miss: headers are minted until the working set is covered,
	// then PutHdr recycles them forever.
	//abmm:allow hotpath-alloc
	return &matrix.Matrix{}
}

//abmm:hotpath
func (a *Arena) PutHdr(m *matrix.Matrix) {
	*m = matrix.Matrix{} // drop references so buffers are not pinned twice
	a.mu.Lock()
	// Warmup-bounded like the floats free list above.
	//abmm:allow hotpath-alloc
	a.hdrs = append(a.hdrs, m)
	a.mu.Unlock()
}

//abmm:hotpath
func (a *Arena) Mat(r, c int) *matrix.Matrix {
	m := a.Hdr()
	m.Init(r, c, a.Floats(r*c))
	return m
}

//abmm:hotpath
func (a *Arena) PutMat(m *matrix.Matrix) {
	a.PutFloats(m.Data)
	a.PutHdr(m)
}

//abmm:hotpath
func (a *Arena) Mats(n int) []*matrix.Matrix {
	if n == 0 {
		return nil
	}
	class := bits.Len(uint(n - 1))
	a.mu.Lock()
	if l := len(a.mats[class]); l > 0 {
		s := a.mats[class][l-1]
		a.mats[class] = a.mats[class][:l-1]
		a.mu.Unlock()
		return s[:n]
	}
	a.mu.Unlock()
	// Cold miss: pointer slices are minted per class until warm.
	//abmm:allow hotpath-alloc
	return make([]*matrix.Matrix, n, 1<<class)
}

//abmm:hotpath
func (a *Arena) PutMats(s []*matrix.Matrix) {
	c := cap(s)
	if c == 0 {
		return
	}
	class := bits.Len(uint(c)) - 1
	if 1<<class != c {
		return
	}
	s = s[:c]
	for i := range s {
		s[i] = nil
	}
	a.mu.Lock()
	// Warmup-bounded like the floats free list.
	//abmm:allow hotpath-alloc
	a.mats[class] = append(a.mats[class], s)
	a.mu.Unlock()
}
