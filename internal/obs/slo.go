package obs

// SLO engine: rolling multi-window burn rate over latency and
// numerical-error objectives, in the style of the Google SRE workbook's
// multiwindow multi-burn-rate alerts. The serving layer feeds it every
// request latency and every sampled error measurement; it answers two
// questions:
//
//	Ready()           should /readyz report 200 — i.e. is the process
//	                  currently meeting its objectives? Unready requires
//	                  BOTH the long and the short window to be burning,
//	                  so a brief spike doesn't flip readiness and
//	                  recovery is fast once the short window clears.
//	ShedProbability() how aggressively should the admission gate shed
//	                  load before the objective is violated? Ramps from
//	                  0 at burn-rate 1 (spending exactly the budget) to
//	                  1 at burn-rate 10 (spending it 10x too fast).
//
// State is a ring of epoch-tagged buckets per objective, written with
// atomics from request completion paths (no locks, no allocation —
// recording may sit on the serving hot path). Rotation is cooperative:
// whoever touches a bucket whose epoch is stale CAS-claims it for the
// current epoch and zeroes it. Readers skip stale epochs, so windows
// age out by wall time alone — a process that stops receiving traffic
// recovers without needing new events.

import (
	"sync/atomic"
	"time"
)

// SLOConfig declares the service objectives. The zero value disables
// the engine (NewSLO returns nil, every method no-ops and Ready holds).
type SLOConfig struct {
	// LatencyP99 is the latency objective: requests slower than this
	// count against the error budget. Zero disables the latency
	// objective.
	LatencyP99 time.Duration
	// ErrorRatioMax is the numerical objective: sampled measurements
	// whose error exceeds ErrorRatioMax times the plan's predicted
	// Theorem III.8 bound count against the budget. Zero disables the
	// error objective.
	ErrorRatioMax float64
	// Window is the long burn-rate window; the short window is
	// Window/12 (the SRE workbook's 1h/5m ratio). Defaults to a minute.
	Window time.Duration
}

// Enabled reports whether the config declares any objective.
func (c SLOConfig) Enabled() bool {
	return c.LatencyP99 > 0 || c.ErrorRatioMax > 0
}

// sloBudget is the error budget: the tolerated fraction of bad events.
// Burn rate = badFraction / sloBudget, so burn 1 means spending the
// budget exactly as fast as allowed.
const sloBudget = 0.01

// sloBuckets subdivides the long window; with 60 buckets the short
// window (Window/12) spans 5 buckets.
const sloBuckets = 60

// sloBucket is one time slice of an objective's history. The epoch tags
// which window generation the counts belong to; readers ignore buckets
// whose epoch is not the one they expect for that slot.
type sloBucket struct {
	epoch atomic.Int64
	total atomic.Int64
	bad   atomic.Int64
}

// sloWindow is one objective's rolling history.
type sloWindow struct {
	buckets [sloBuckets]sloBucket
}

// record adds one event to the bucket for epoch now/granularity.
func (w *sloWindow) record(epoch int64, bad bool) {
	b := &w.buckets[int(epoch%sloBuckets)]
	for {
		e := b.epoch.Load()
		if e == epoch {
			break
		}
		// Stale slot from a previous lap: claim it for this epoch and
		// zero the counts. The CAS loser re-checks; counts written by a
		// racing recorder between Store and the zeroing are lost, which
		// misplaces at most a bucket's worth of events per lap.
		if b.epoch.CompareAndSwap(e, epoch) {
			b.total.Store(0)
			b.bad.Store(0)
			break
		}
	}
	b.total.Add(1)
	if bad {
		b.bad.Add(1)
	}
}

// sum totals the most recent n epochs ending at epoch now.
func (w *sloWindow) sum(now int64, n int) (total, bad int64) {
	for i := 0; i < n; i++ {
		epoch := now - int64(i)
		if epoch < 0 {
			break
		}
		b := &w.buckets[int(epoch%sloBuckets)]
		if b.epoch.Load() != epoch {
			continue // stale or unwritten slot
		}
		total += b.total.Load()
		bad += b.bad.Load()
	}
	return total, bad
}

// SLO tracks burn rate against an SLOConfig. All methods tolerate a nil
// receiver, so callers thread an optional *SLO without guards.
type SLO struct {
	cfg         SLOConfig
	granularity time.Duration // one bucket's span (Window / sloBuckets)
	start       time.Time
	now         func() time.Time // test hook

	latency sloWindow
	errs    sloWindow
}

// NewSLO builds the engine for cfg, or returns nil when cfg declares no
// objective.
func NewSLO(cfg SLOConfig) *SLO {
	if !cfg.Enabled() {
		return nil
	}
	if cfg.Window <= 0 {
		cfg.Window = time.Minute
	}
	s := &SLO{cfg: cfg, granularity: cfg.Window / sloBuckets, now: time.Now}
	if s.granularity <= 0 {
		s.granularity = time.Millisecond
	}
	s.start = s.now()
	return s
}

// Config returns the engine's objectives (zero for a nil engine).
func (s *SLO) Config() SLOConfig {
	if s == nil {
		return SLOConfig{}
	}
	return s.cfg
}

func (s *SLO) epoch() int64 {
	return int64(s.now().Sub(s.start) / s.granularity)
}

// RecordLatency reports one completed request; it counts against the
// latency objective when d exceeds LatencyP99. Lock-free.
//
//abmm:hotpath
func (s *SLO) RecordLatency(d time.Duration) {
	if s == nil || s.cfg.LatencyP99 <= 0 {
		return
	}
	s.latency.record(s.epoch(), d > s.cfg.LatencyP99)
}

// ErrorSample implements Recorder: one sampled accuracy measurement,
// counted against the error objective when the measured error exceeds
// ErrorRatioMax times the predicted bound. The serving layer tees the
// SLO with its Collector, so samples from every plan reach it; the
// latency objective is fed by RecordLatency, not by MulDone.
func (s *SLO) ErrorSample(measured, bound float64) {
	if s == nil || s.cfg.ErrorRatioMax <= 0 {
		return
	}
	s.errs.record(s.epoch(), bound <= 0 || measured > bound*s.cfg.ErrorRatioMax)
}

// PhaseDone, MulDone and ArenaRelease implement Recorder as no-ops.
func (s *SLO) PhaseDone(Phase, time.Duration) {}
func (s *SLO) MulDone(MulInfo, time.Duration) {}
func (s *SLO) ArenaRelease(ArenaUsage)        {}

// SLOWindowStats is one objective's burn state over one window.
type SLOWindowStats struct {
	Total int64   `json:"total"`
	Bad   int64   `json:"bad"`
	Burn  float64 `json:"burn"`
}

// SLOObjectiveStatus is one objective's long- and short-window burn.
type SLOObjectiveStatus struct {
	Long  SLOWindowStats `json:"long"`
	Short SLOWindowStats `json:"short"`
	// Burning reports both windows at or above burn rate 1 — the
	// multiwindow condition that marks the objective violated.
	Burning bool `json:"burning"`
}

// SLOStatus is the engine's current verdict, served by /readyz.
type SLOStatus struct {
	Enabled bool `json:"enabled"`
	// Ready is false while any objective burns in both windows.
	Ready bool `json:"ready"`
	// ShedProbability is the admission-gate hint: the fraction of
	// excess load to shed, 0 when within budget, ramping to 1 as the
	// short-window burn rate reaches 10.
	ShedProbability float64            `json:"shed_probability"`
	Latency         SLOObjectiveStatus `json:"latency"`
	Errors          SLOObjectiveStatus `json:"errors"`
}

func burnStats(w *sloWindow, now int64, n int) SLOWindowStats {
	total, bad := w.sum(now, n)
	st := SLOWindowStats{Total: total, Bad: bad}
	if total > 0 {
		st.Burn = (float64(bad) / float64(total)) / sloBudget
	}
	return st
}

func objectiveStatus(w *sloWindow, now int64) SLOObjectiveStatus {
	st := SLOObjectiveStatus{
		Long:  burnStats(w, now, sloBuckets),
		Short: burnStats(w, now, sloBuckets/12),
	}
	st.Burning = st.Long.Burn >= 1 && st.Short.Burn >= 1
	return st
}

// Status evaluates both objectives now. A nil engine reports disabled
// and ready.
func (s *SLO) Status() SLOStatus {
	if s == nil {
		return SLOStatus{Ready: true}
	}
	now := s.epoch()
	st := SLOStatus{Enabled: true, Ready: true}
	if s.cfg.LatencyP99 > 0 {
		st.Latency = objectiveStatus(&s.latency, now)
	}
	if s.cfg.ErrorRatioMax > 0 {
		st.Errors = objectiveStatus(&s.errs, now)
	}
	if st.Latency.Burning || st.Errors.Burning {
		st.Ready = false
	}
	// Shed ramps on the worst short-window burn: 0 at burn 1 (budget
	// spent exactly on schedule) to 1 at burn 10.
	worst := st.Latency.Short.Burn
	if st.Errors.Short.Burn > worst {
		worst = st.Errors.Short.Burn
	}
	if worst > 1 {
		st.ShedProbability = (worst - 1) / 9
		if st.ShedProbability > 1 {
			st.ShedProbability = 1
		}
	}
	return st
}

// Ready reports whether every objective is currently met (true for a
// nil engine).
func (s *SLO) Ready() bool { return s.Status().Ready }

// ShedProbability returns the current admission-shed hint in [0, 1]
// (0 for a nil engine).
func (s *SLO) ShedProbability() float64 { return s.Status().ShedProbability }
