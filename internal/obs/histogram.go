package obs

// Lock-free log-bucketed histogram. Distribution-level telemetry (tail
// latency, per-phase spread, sampled numerical error) needs more than
// the Collector's running sums, but it must not cost the warm path
// anything: Observe is three atomic adds and one atomic max into a
// fixed array — no locks, no allocation, safe from any goroutine.
//
// Bucketing is logarithmic with linear sub-buckets (the HDR-histogram
// scheme): values 0..3 get exact unit buckets, and every octave
// [2^e, 2^(e+1)) above that is split into 4 equal sub-buckets, so the
// relative width of any bucket is at most 25% — accurate enough for
// p50/p95/p99 across the full int64 range with a fixed 2 KiB footprint.

import (
	"math"
	"math/bits"
	"sync/atomic"
)

const (
	histSubBits = 2
	histSub     = 1 << histSubBits // sub-buckets per octave
	histBuckets = 63*histSub + histSub
)

// Histogram is a lock-free log-bucketed histogram of non-negative
// int64 observations. The zero value is ready to use; a nil *Histogram
// records and reports nothing. The caller picks the unit (the Collector
// records durations in nanoseconds, arena traffic in bytes, and
// relative errors in attos, 1e-18).
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value. Negative values are clamped to zero.
//
//abmm:hotpath
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	atomicMax(&h.max, v)
	h.buckets[histBucket(uint64(v))].Add(1)
}

// Reset clears the histogram. Concurrent Observes during a Reset land
// wholly in the old or new window at the granularity of single fields;
// a snapshot taken mid-reset may be off by the in-flight observations,
// never negative or corrupt.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// histBucket maps a value to its bucket index: 0..3 exactly, then
// (octave, top-2-fraction-bits).
func histBucket(u uint64) int {
	if u < histSub {
		return int(u)
	}
	exp := bits.Len64(u) - 1 // ≥ histSubBits
	sub := (u >> (uint(exp) - histSubBits)) & (histSub - 1)
	return (exp-1)*histSub + int(sub)
}

// histBucketBounds returns the half-open value range [lo, hi) of bucket
// i, as floats (the top octave's hi exceeds MaxInt64; quantile
// estimates clamp to the observed max).
func histBucketBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	exp := i/histSub + 1
	sub := i % histSub
	width := math.Ldexp(1, exp-histSubBits)
	lo = math.Ldexp(1, exp) + float64(sub)*width
	return lo, lo + width
}

// HistSnapshot is a point-in-time copy of a Histogram. Like the
// Collector's Snapshot it is read field-by-field, so a snapshot taken
// while observations are in flight may be off by a fraction of one
// observation.
type HistSnapshot struct {
	Count   int64
	Sum     int64
	Max     int64
	Buckets [histBuckets]int64
}

// Snapshot copies the histogram's current state. A nil histogram
// yields the zero snapshot. It reads the fields in the reverse of the
// order Observe writes them, buckets first, so observations landing
// mid-snapshot can raise Count but never leave the bucket total above
// it; only observations split by a concurrent Reset can (at most one
// per observing goroutine).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Max = h.max.Load()
	s.Sum = h.sum.Load()
	s.Count = h.count.Load()
	return s
}

// Quantile estimates the q-quantile (0 < q ≤ 1) from the bucket
// counts: it finds the bucket holding the q·Count-th observation and
// interpolates linearly within it, clamping to the observed maximum.
// An empty snapshot reports 0.
func (s *HistSnapshot) Quantile(q float64) float64 {
	if s.Count <= 0 {
		return 0
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum+1e-9 < rank {
			continue
		}
		lo, hi := histBucketBounds(i)
		v := lo + (hi-lo)*(rank-prev)/float64(c)
		if m := float64(s.Max); v > m {
			v = m
		}
		return v
	}
	return float64(s.Max)
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (s *HistSnapshot) Mean() float64 {
	if s.Count <= 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Stats summarizes the snapshot in a caller-chosen unit: every value
// (quantiles, max) is multiplied by scale. The Collector uses it to
// report nanosecond histograms in seconds and atto-scaled errors as
// dimensionless ratios.
func (s *HistSnapshot) Stats(scale float64) HistStats {
	return HistStats{
		Count: s.Count,
		P50:   s.Quantile(0.50) * scale,
		P95:   s.Quantile(0.95) * scale,
		P99:   s.Quantile(0.99) * scale,
		Max:   float64(s.Max) * scale,
	}
}

// HistStats is the distribution summary embedded in a Snapshot: the
// observation count, interpolated p50/p95/p99, and the exact maximum,
// in the unit of the parent field (seconds, bytes, or a dimensionless
// ratio). Part of the pinned JSON stats schema.
type HistStats struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}
