package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"
)

// Collector is the concrete Recorder: lock-free atomic aggregation of
// phase spans, multiplication totals, and arena traffic. All methods
// are safe for concurrent use and tolerate a nil receiver (a nil
// *Collector records nothing), so it can be threaded through Options
// unconditionally.
type Collector struct {
	labels atomic.Bool

	mulCount       atomic.Int64
	mulNanos       atomic.Int64
	classicalFlops atomic.Int64
	algFlops       atomic.Int64
	maxLevels      atomic.Int64

	phases [NumPhases]phaseAgg

	arenaReleases  atomic.Int64
	arenaAlloc     atomic.Int64 // max AllocBytes seen across releases
	arenaHighWater atomic.Int64 // max HighWaterBytes seen across releases
	arenaRequested atomic.Int64 // sum
	arenaReused    atomic.Int64 // sum

	// Distribution-level telemetry: per-multiply wall time and per-phase
	// durations in nanoseconds, per-release requested arena bytes, and
	// the sampled-accuracy histograms (measured relative error and
	// measured/bound ratio, both stored atto-scaled; see errAttos).
	mulDur   Histogram
	phaseDur [NumPhases]Histogram
	arenaReq Histogram

	errSamples  atomic.Int64
	errMeasured Histogram
	errRatio    Histogram
}

type phaseAgg struct {
	count atomic.Int64
	nanos atomic.Int64
}

// errAttoScale is the fixed-point scale for the error histograms:
// relative errors and measured/bound ratios are dimensionless values
// ≪ 1, recorded in attos (1e-18) so the int64 histogram resolves them.
// Values above ~9.2 (absurd for a correct multiply) clamp to MaxInt64.
const errAttoScale = 1e18

func errAttos(v float64) int64 {
	if v <= 0 {
		return 0
	}
	a := v * errAttoScale
	if a >= math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(a)
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector { return &Collector{} }

// SetPprofLabels enables or disables per-phase goroutine pprof labels
// for executions recorded through this collector; see PprofLabeler.
func (c *Collector) SetPprofLabels(on bool) {
	if c != nil {
		c.labels.Store(on)
	}
}

// PprofLabels implements PprofLabeler.
func (c *Collector) PprofLabels() bool { return c != nil && c.labels.Load() }

// PhaseDone implements Recorder.
//
//abmm:hotpath
func (c *Collector) PhaseDone(p Phase, d time.Duration) {
	if c == nil || int(p) >= NumPhases {
		return
	}
	c.phases[p].count.Add(1)
	c.phases[p].nanos.Add(int64(d))
	c.phaseDur[p].Observe(int64(d))
}

// MulDone implements Recorder.
//
//abmm:hotpath
func (c *Collector) MulDone(info MulInfo, total time.Duration) {
	if c == nil {
		return
	}
	c.mulCount.Add(1)
	c.mulNanos.Add(int64(total))
	c.classicalFlops.Add(info.ClassicalFlops)
	c.algFlops.Add(info.AlgFlops)
	atomicMax(&c.maxLevels, int64(info.Levels))
	c.mulDur.Observe(int64(total))
}

// ErrorSample implements ErrorSampler: one sampled accuracy
// measurement, as the measured relative error against the
// quad-precision reference and the predicted Theorem III.8 bound the
// execution was compiled with.
//
//abmm:hotpath
func (c *Collector) ErrorSample(measured, bound float64) {
	if c == nil {
		return
	}
	c.errSamples.Add(1)
	c.errMeasured.Observe(errAttos(measured))
	if bound > 0 {
		c.errRatio.Observe(errAttos(measured / bound))
	}
}

// ArenaRelease implements Recorder.
//
//abmm:hotpath
func (c *Collector) ArenaRelease(u ArenaUsage) {
	if c == nil {
		return
	}
	c.arenaReleases.Add(1)
	atomicMax(&c.arenaAlloc, u.AllocBytes)
	atomicMax(&c.arenaHighWater, u.HighWaterBytes)
	c.arenaRequested.Add(u.RequestedBytes)
	c.arenaReused.Add(u.ReusedBytes)
	c.arenaReq.Observe(u.RequestedBytes)
}

// Reset clears every counter, histogram, and error-sampling aggregate,
// starting a fresh observation window (pprof-label preference
// survives). Long-running processes that serve /metrics can Reset
// between scrapes to report windowed rather than lifetime
// distributions; recording may continue concurrently.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	c.mulCount.Store(0)
	c.mulNanos.Store(0)
	c.classicalFlops.Store(0)
	c.algFlops.Store(0)
	c.maxLevels.Store(0)
	for i := range c.phases {
		c.phases[i].count.Store(0)
		c.phases[i].nanos.Store(0)
		c.phaseDur[i].Reset()
	}
	c.arenaReleases.Store(0)
	c.arenaAlloc.Store(0)
	c.arenaHighWater.Store(0)
	c.arenaRequested.Store(0)
	c.arenaReused.Store(0)
	c.mulDur.Reset()
	c.arenaReq.Reset()
	c.errSamples.Store(0)
	c.errMeasured.Reset()
	c.errRatio.Reset()
}

func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// PhaseStats is one phase's aggregate in a Snapshot.
type PhaseStats struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	Seconds float64 `json:"seconds"`
	// Share is the phase's fraction of total multiplication wall time;
	// the shares of a single-threaded pipeline sum to ~1.
	Share float64 `json:"share"`
	// Per-span duration quantiles in seconds (histogram-interpolated).
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// ErrorSampleStats aggregates the sampled accuracy telemetry in a
// Snapshot: how many multiplications were re-run through the
// quad-precision reference, the distribution of measured relative
// errors, and the distribution of measured/bound ratios against the
// predicted Theorem III.8 bound (a ratio ≥ 1 means the measured error
// reached the theoretical bound — worth alarming on).
type ErrorSampleStats struct {
	Samples    int64     `json:"samples"`
	Measured   HistStats `json:"measured"`
	BoundRatio HistStats `json:"bound_ratio"`
}

// ArenaStats is the workspace-arena aggregate in a Snapshot.
type ArenaStats struct {
	Releases       int64   `json:"releases"`
	AllocBytes     int64   `json:"alloc_bytes"`
	HighWaterBytes int64   `json:"high_water_bytes"`
	RequestedBytes int64   `json:"requested_bytes"`
	ReusedBytes    int64   `json:"reused_bytes"`
	ReuseRatio     float64 `json:"reuse_ratio"`
}

// Snapshot is a point-in-time copy of a Collector, shaped for JSON
// export (this schema is pinned by a golden test; extend it, don't
// rename fields) and for the human-readable Report.
type Snapshot struct {
	Mults   int64   `json:"mults"`
	Levels  int     `json:"levels"`
	Seconds float64 `json:"seconds"`
	// ClassicalGFLOPS rates the classical flop count 2mkn against wall
	// time (the "classical-equivalent" rate hardware vendors quote);
	// EffectiveGFLOPS rates the algorithm's true operation count, which
	// is lower for fast algorithms.
	ClassicalGFLOPS float64      `json:"classical_gflops"`
	EffectiveGFLOPS float64      `json:"effective_gflops"`
	ClassicalFlops  int64        `json:"classical_flops"`
	AlgFlops        int64        `json:"alg_flops"`
	Phases          []PhaseStats `json:"phases"`
	Arena           ArenaStats   `json:"arena"`
	// MulDuration is the per-multiplication wall-time distribution in
	// seconds; ArenaRequest the per-release requested scratch bytes.
	MulDuration  HistStats        `json:"mul_duration"`
	ArenaRequest HistStats        `json:"arena_request_bytes"`
	Errors       ErrorSampleStats `json:"error_sampling"`
}

// Snapshot returns a consistent-enough copy for reporting: counters are
// read individually (not under a lock), so a snapshot taken while
// executions are in flight may be off by a fraction of one execution.
func (c *Collector) Snapshot() Snapshot {
	var s Snapshot
	s.Phases = make([]PhaseStats, NumPhases)
	for i := range s.Phases {
		s.Phases[i].Name = Phase(i).String()
	}
	if c == nil {
		return s
	}
	s.Mults = c.mulCount.Load()
	s.Levels = int(c.maxLevels.Load())
	nanos := c.mulNanos.Load()
	s.Seconds = float64(nanos) / 1e9
	s.ClassicalFlops = c.classicalFlops.Load()
	s.AlgFlops = c.algFlops.Load()
	if nanos > 0 {
		s.ClassicalGFLOPS = float64(s.ClassicalFlops) / float64(nanos)
		s.EffectiveGFLOPS = float64(s.AlgFlops) / float64(nanos)
	}
	for i := range s.Phases {
		s.Phases[i].Count = c.phases[i].count.Load()
		pn := c.phases[i].nanos.Load()
		s.Phases[i].Seconds = float64(pn) / 1e9
		if nanos > 0 {
			s.Phases[i].Share = float64(pn) / float64(nanos)
		}
		ph := c.phaseDur[i].Snapshot()
		s.Phases[i].P50 = ph.Quantile(0.50) / 1e9
		s.Phases[i].P95 = ph.Quantile(0.95) / 1e9
		s.Phases[i].P99 = ph.Quantile(0.99) / 1e9
	}
	md := c.mulDur.Snapshot()
	s.MulDuration = md.Stats(1e-9)
	aq := c.arenaReq.Snapshot()
	s.ArenaRequest = aq.Stats(1)
	s.Errors.Samples = c.errSamples.Load()
	em := c.errMeasured.Snapshot()
	s.Errors.Measured = em.Stats(1 / errAttoScale)
	er := c.errRatio.Snapshot()
	s.Errors.BoundRatio = er.Stats(1 / errAttoScale)
	s.Arena = ArenaStats{
		Releases:       c.arenaReleases.Load(),
		AllocBytes:     c.arenaAlloc.Load(),
		HighWaterBytes: c.arenaHighWater.Load(),
		RequestedBytes: c.arenaRequested.Load(),
		ReusedBytes:    c.arenaReused.Load(),
	}
	if s.Arena.RequestedBytes > 0 {
		s.Arena.ReuseRatio = float64(s.Arena.ReusedBytes) / float64(s.Arena.RequestedBytes)
	}
	return s
}

// String renders the snapshot as JSON, making *Collector an
// expvar.Var; see Publish.
func (c *Collector) String() string {
	b, err := json.Marshal(c.Snapshot())
	if err != nil {
		return "{}"
	}
	return string(b)
}

// Publish registers the collector with the expvar registry under name,
// so /debug/vars (or any expvar consumer) serves live snapshots.
// Registering the same name twice is an expvar panic; Publish makes the
// second registration a no-op instead.
func Publish(name string, c *Collector) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, c)
}

// Report renders the snapshot as an aligned human-readable block.
func (s Snapshot) Report() string {
	var b strings.Builder
	dur := func(sec float64) time.Duration { return time.Duration(sec * 1e9).Round(time.Microsecond) }
	fmt.Fprintf(&b, "%d multiplication(s), levels ≤ %d, wall %.3fs\n", s.Mults, s.Levels, s.Seconds)
	fmt.Fprintf(&b, "  %-10s %8s %12s %7s %12s %12s\n", "phase", "count", "time", "share", "p50", "p99")
	for _, p := range s.Phases {
		fmt.Fprintf(&b, "  %-10s %8d %12s %6.1f%% %12s %12s\n",
			p.Name, p.Count, dur(p.Seconds), 100*p.Share, dur(p.P50), dur(p.P99))
	}
	fmt.Fprintf(&b, "  latency: p50 %s, p95 %s, p99 %s, max %s\n",
		dur(s.MulDuration.P50), dur(s.MulDuration.P95), dur(s.MulDuration.P99), dur(s.MulDuration.Max))
	fmt.Fprintf(&b, "  throughput: %.2f classical-equivalent GFLOP/s, %.2f effective GFLOP/s\n",
		s.ClassicalGFLOPS, s.EffectiveGFLOPS)
	fmt.Fprintf(&b, "  arena: %.1f MiB allocated, %.1f MiB high-water, %.1f%% scratch reuse (%d release(s))",
		float64(s.Arena.AllocBytes)/(1<<20), float64(s.Arena.HighWaterBytes)/(1<<20),
		100*s.Arena.ReuseRatio, s.Arena.Releases)
	if s.Errors.Samples > 0 {
		fmt.Fprintf(&b, "\n  error sampling: %d sample(s), measured rel err p50 %.2e max %.2e, measured/bound p99 %.2e max %.2e",
			s.Errors.Samples, s.Errors.Measured.P50, s.Errors.Measured.Max,
			s.Errors.BoundRatio.P99, s.Errors.BoundRatio.Max)
	}
	return b.String()
}
