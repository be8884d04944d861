// Package tune implements shape-aware autotuned plan selection: given
// an operand shape, it enumerates candidate (algorithm, levels) pairs
// from the catalog, prunes those whose padding waste or Theorem III.8
// error bound disqualify them before any timing,
// measures the survivors with the same
// warmup/best-of-repetitions discipline as the benchmark harness, and
// pins the winner.
//
// The Tuner type plugs into core.Options.Tuner: on a plan-cache miss it
// answers from a persisted tuning profile first (see Profile — written
// offline by `cmd/bench -tune`, loaded at boot by `abmmd
// -tune-profile`) and optionally falls back to online measurement under
// a bounded time budget. Decisions are observable end to end: tuned
// plans carry a "/tuned" marker in their identity (X-Abmm-Plan,
// /debug/plans) and the tuner exports the abmm_tune_* metric family.
//
// Why shape-aware: the default configuration recurses only while base
// blocks stay ≥ 512 in *every* dimension, so rectangular shapes
// (1536×512×1536 — the inner dimension is the binding one) run the
// classical kernel even though a level or two of a well-chosen
// ⟨m₀,k₀,n₀;r⟩ algorithm is measurably faster. Benson–Ballard
// (PAPERS.md) make the case that non-square base cases beat uniform
// Strassen on such shapes; the catalog already has them, and the
// precompiled stability bounds make the accuracy axis free to query.
package tune

import (
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"abmm"
	"abmm/internal/algos"
	"abmm/internal/core"
	"abmm/internal/matrix"
	"abmm/internal/obs"
	"abmm/internal/stability"
)

// Config parameterizes a Tuner. The zero value is a sensible
// profile-only serving configuration: answers come from an installed
// profile, unseen shapes fall back to the untuned default (Budget 0
// disables online measurement). Every candidate runs at the caller's
// Options.Workers, and one whose padding exceeds 1.25× the operand
// volume (maxPadRatio) is pruned before timing.
type Config struct {
	// Algorithms names the catalog candidates to enumerate
	// (abmm.Lookup); nil selects DefaultAlgorithms. Unknown names are
	// skipped with a warning at enumeration time, so a configuration
	// written for a newer build degrades gracefully.
	Algorithms []string
	// MaxLevels bounds the recursion depth candidates; 0 selects 3.
	MaxLevels int
	// MinBase is the smallest base-block dimension a candidate may
	// recurse down to; 0 selects 96. Unlike the serving default (512),
	// the tuner may profitably accept smaller bases because it verifies
	// the win by measurement instead of assuming it.
	MinBase int
	// MaxBoundRatio is the accuracy constraint: candidates whose
	// Theorem III.8 factor f(K,L) exceeds MaxBoundRatio × K² (the
	// classical factor at the same padded inner dimension) are pruned
	// before timing. 0 disables the constraint. The level-0 candidate is
	// never pruned — it *is* the classical reference.
	MaxBoundRatio float64
	// Budget bounds online measurement per unseen shape when the Tuner
	// is consulted on a plan-cache miss without a profile entry
	// (core.Options.Tuner). 0 disables online measurement: unseen shapes
	// compile the untuned default. Measurement runs on the cold compile
	// path under the plan cache's mutex, so the first request for an
	// unseen shape pays up to Budget in added latency — size it
	// accordingly (or tune offline and leave it 0).
	Budget time.Duration
	// Reps is the number of timed repetitions per candidate
	// (best-of-reps, after one warmup); 0 selects 3.
	Reps int
	// Logger receives tuning decisions and truncation warnings; nil
	// discards them.
	Logger *slog.Logger
}

// DefaultAlgorithms is the catalog subset the tuner enumerates when
// Config.Algorithms is nil: the alternative-basis square algorithms
// plus the rectangular base cases that motivate shape-aware selection.
func DefaultAlgorithms() []string {
	return []string{"ours", "alt-winograd", "hk223", "rect323", "laderman-alt"}
}

func (c Config) withDefaults() Config {
	if c.Algorithms == nil {
		c.Algorithms = DefaultAlgorithms()
	}
	if c.MaxLevels <= 0 {
		c.MaxLevels = 3
	}
	if c.MinBase <= 0 {
		c.MinBase = 96
	}
	if c.Reps <= 0 {
		c.Reps = 3
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// maxPadRatio prunes candidates whose padded volume exceeds this
// multiple of the operand volume.
const maxPadRatio = 1.25

// Candidate is one enumerated (algorithm, levels) pair, annotated with
// the pruning inputs that let it survive.
type Candidate struct {
	Alg    *algos.Algorithm
	Levels int

	// PadRatio is padded volume over operand volume; BoundFactor the
	// Theorem III.8 factor f(K,L) at the padded inner dimension.
	PadRatio    float64
	BoundFactor float64
}

// String renders the candidate the way plan identities do.
func (c Candidate) String() string {
	return fmt.Sprintf("%s/L%d/%s", c.Alg.Name, c.Levels, schedule)
}

// Tuner selects plan configurations per shape. It is safe for
// concurrent use (several Multipliers may share one) and implements
// core.Tuner.
type Tuner struct {
	cfg Config

	mu      sync.Mutex
	entries map[[3]int]Entry //abmm:guards mu

	profileLoaded  atomic.Int64 // 1 once a profile file installed
	profileEntries atomic.Int64

	// Decision counters by source, exported as
	// abmm_tune_decisions_total{source=...}.
	fromProfile  atomic.Int64
	fromMeasured atomic.Int64
	fromDefault  atomic.Int64

	pruned    atomic.Int64 // candidates dropped before timing
	truncated atomic.Int64 // tuning runs cut short by the budget
}

// New returns a Tuner with cfg's zero fields defaulted.
func New(cfg Config) *Tuner {
	return &Tuner{cfg: cfg.withDefaults(), entries: make(map[[3]int]Entry)}
}

// LoadFile strictly loads a profile file and installs its cells.
// On any error (missing, corrupt, truncated, version-skewed) the tuner
// is left unchanged — still fully serviceable, answering "no opinion"
// for the affected shapes — and the error describes why. The serve path
// never sees an error: abmmd logs it at boot and serves untuned.
func (t *Tuner) LoadFile(path string) error {
	p, err := ReadProfile(path)
	if err != nil {
		return err
	}
	t.Install(p)
	return nil
}

// Install adopts every cell of a decoded profile and marks the tuner
// profile-backed (abmm_tune_profile_loaded).
func (t *Tuner) Install(p *Profile) {
	if p == nil {
		return
	}
	t.mu.Lock()
	for _, e := range p.Cells {
		t.entries[e.shape()] = e
	}
	n := len(t.entries)
	t.mu.Unlock()
	t.profileLoaded.Store(1)
	t.profileEntries.Store(int64(n))
}

// Profile snapshots the tuner's current cells — profile-installed and
// online-measured alike — as a freshly stamped profile, ready to save.
func (t *Tuner) Profile() *Profile {
	p := NewProfile()
	t.mu.Lock()
	for _, e := range t.entries {
		p.Cells = append(p.Cells, e)
	}
	t.mu.Unlock()
	sort.Slice(p.Cells, func(i, j int) bool {
		a, b := p.Cells[i], p.Cells[j]
		if a.M != b.M {
			return a.M < b.M
		}
		if a.K != b.K {
			return a.K < b.K
		}
		return a.N < b.N
	})
	return p
}

// Choose implements core.Tuner: profile first, then bounded online
// measurement (when Budget > 0), then "no opinion". It never fails —
// any problem degrades to the untuned default.
func (t *Tuner) Choose(def *algos.Algorithm, opt core.Options, m, k, n int) (core.TunedChoice, bool) {
	key := [3]int{m, k, n}
	t.mu.Lock()
	e, ok := t.entries[key]
	t.mu.Unlock()
	if ok {
		if ch, ok := t.choice(e); ok {
			t.fromProfile.Add(1)
			return ch, true
		}
		t.fromDefault.Add(1)
		return core.TunedChoice{}, false
	}
	if t.cfg.Budget <= 0 {
		t.fromDefault.Add(1)
		return core.TunedChoice{}, false
	}
	e, err := t.Tune(def, opt, m, k, n, t.cfg.Budget)
	if err != nil {
		t.cfg.Logger.Warn("tune: online measurement failed; serving untuned",
			"shape", fmt.Sprintf("%dx%dx%d", m, k, n), "err", err)
		t.fromDefault.Add(1)
		return core.TunedChoice{}, false
	}
	t.mu.Lock()
	t.entries[key] = e
	t.mu.Unlock()
	ch, ok := t.choice(e)
	if !ok {
		t.fromDefault.Add(1)
		return core.TunedChoice{}, false
	}
	t.fromMeasured.Add(1)
	return ch, true
}

// choice resolves an entry into a core.TunedChoice; false when the
// entry names an algorithm this build's catalog lacks (profile from a
// different build).
func (t *Tuner) choice(e Entry) (core.TunedChoice, bool) {
	alg, err := abmm.Lookup(e.Alg)
	if err != nil {
		t.cfg.Logger.Warn("tune: profile names unknown algorithm; serving untuned",
			"alg", e.Alg, "shape", fmt.Sprintf("%dx%dx%d", e.M, e.K, e.N))
		return core.TunedChoice{}, false
	}
	return core.TunedChoice{Alg: alg, Levels: e.Levels, Workers: e.Workers}, true
}

// Candidates enumerates the tuples the tuner would measure for an
// m×k·k×n multiplication, after divisibility, padding, base-size, and
// error-bound pruning. The level-0 classical candidate (under def) is
// always first.
func (t *Tuner) Candidates(def *algos.Algorithm, m, k, n int) []Candidate {
	var out []Candidate
	// The level-0 candidate is algorithm-independent (no recursion steps
	// means no basis transforms and no bilinear tree — just the packed
	// kernel), so it is emitted once, under the default algorithm's
	// name, and exempt from the accuracy constraint: it defines the
	// classical reference the constraint compares against.
	out = append(out, Candidate{
		Alg: def, Levels: 0,
		PadRatio: 1, BoundFactor: float64(k) * float64(k),
	})
	vol := float64(m) * float64(k) * float64(n)
	for _, name := range t.cfg.Algorithms {
		alg, err := abmm.Lookup(name)
		if err != nil {
			t.cfg.Logger.Warn("tune: skipping unknown candidate algorithm", "alg", name)
			continue
		}
		s := alg.Spec
		for l := 1; l <= t.cfg.MaxLevels; l++ {
			pm, pk, pn := matrix.PadShape(m, k, n, s.M0, s.K0, s.N0, l)
			bm, bk, bn := pm/ipow(s.M0, l), pk/ipow(s.K0, l), pn/ipow(s.N0, l)
			if bm < t.cfg.MinBase || bk < t.cfg.MinBase || bn < t.cfg.MinBase {
				break // deeper levels only shrink the base further
			}
			padRatio := float64(pm) * float64(pk) * float64(pn) / vol
			if padRatio > maxPadRatio {
				t.pruned.Add(1)
				continue // deeper levels pad differently; keep looking
			}
			bound := stability.ErrorBoundKL(alg, float64(pk), l)
			if t.cfg.MaxBoundRatio > 0 && bound > t.cfg.MaxBoundRatio*float64(pk)*float64(pk) {
				t.pruned.Add(1)
				continue
			}
			out = append(out, Candidate{
				Alg: alg, Levels: l,
				PadRatio: padRatio, BoundFactor: bound,
			})
		}
	}
	return out
}

// Tune measures the candidates for one shape and returns the winning
// entry. def and opt are the multiplier's defaults: the default
// configuration (def at automatic levels under opt's workers) is
// always measured first and is the baseline the entry's
// DefaultNsPerOp/DefaultPlan record — the winner may well *be* that
// default, in which case the entry simply pins it. budget bounds total
// wall time (0 = unbounded); when it runs out, unmeasured candidates
// are dropped and the truncation is logged and counted
// (abmm_tune_runs_truncated_total) — never an error.
func (t *Tuner) Tune(def *algos.Algorithm, opt core.Options, m, k, n int, budget time.Duration) (Entry, error) {
	if m < 1 || k < 1 || n < 1 {
		return Entry{}, fmt.Errorf("tune: invalid shape %dx%dx%d", m, k, n)
	}
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}

	// Deterministic operands: tuning must not depend on what the caller
	// happens to multiply first.
	rng := matrix.Rand(uint64(m)<<42 ^ uint64(k)<<21 ^ uint64(n))
	a, b := matrix.New(m, k), matrix.New(k, n)
	a.FillUniform(rng, -1, 1)
	b.FillUniform(rng, -1, 1)
	dst := matrix.New(m, n)

	// Strip telemetry from the measurement options: tuning runs must
	// not pollute the serving process's recorder, per-plan registry, or
	// accuracy samples (and must not re-enter the tuner).
	base := core.Options{Workers: opt.Workers}

	// Baseline: the configuration compilePlan would use with no tuner.
	dopt := base
	dopt.Levels = core.AutoLevels
	dmu := core.New(def, dopt)
	defPlan := dmu.Plan(m, k, n)
	defNs, _ := t.measure(dmu, dst, a, b, deadline)
	if defNs <= 0 {
		return Entry{}, fmt.Errorf("tune: could not measure the default configuration for %dx%dx%d", m, k, n)
	}

	best := Entry{
		M: m, K: k, N: n,
		Alg: def.Name, Levels: defPlan.Levels(),
		Schedule:    schedule,
		Workers:     opt.Workers,
		NsPerOp:     defNs,
		BoundFactor: stability.ErrorBoundKL(def, float64(k), defPlan.Levels()),
	}
	for _, c := range t.Candidates(def, m, k, n) {
		if c.Alg == def && c.Levels == defPlan.Levels() {
			continue // already measured as the baseline
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			t.truncated.Add(1)
			t.cfg.Logger.Warn("tune: budget exhausted; remaining candidates skipped",
				"shape", fmt.Sprintf("%dx%dx%d", m, k, n), "budget", budget)
			break
		}
		copt := base
		copt.Levels = c.Levels
		ns, ok := t.measure(core.New(c.Alg, copt), dst, a, b, deadline)
		if !ok {
			t.truncated.Add(1)
			t.cfg.Logger.Warn("tune: budget exhausted mid-candidate",
				"shape", fmt.Sprintf("%dx%dx%d", m, k, n), "candidate", c.String())
			break
		}
		if ns < best.NsPerOp {
			best.Alg, best.Levels = c.Alg.Name, c.Levels
			best.NsPerOp = ns
			best.BoundFactor = c.BoundFactor
		}
	}
	best.GFLOPS = 2 * float64(m) * float64(k) * float64(n) / float64(best.NsPerOp)
	best.DefaultPlan = defPlan.Desc()
	best.DefaultNsPerOp = defNs
	t.cfg.Logger.Info("tune: shape tuned",
		"shape", fmt.Sprintf("%dx%dx%d", m, k, n),
		"plan", fmt.Sprintf("%s/L%d/%s", best.Alg, best.Levels, best.Schedule),
		"default", best.DefaultPlan,
		"gain_percent", fmt.Sprintf("%.1f", best.GainPercent()))
	return best, nil
}

// measure times one configuration with the bench harness discipline —
// one warmup multiplication (which also compiles the plan and fills the
// arenas), then best-of-Reps timed runs. At least one timed run always
// completes; ok=false only when the deadline passed before it could.
func (t *Tuner) measure(mu *core.Multiplier, dst, a, b *matrix.Matrix, deadline time.Time) (ns int64, ok bool) {
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		return 0, false
	}
	mu.MultiplyInto(dst, a, b)
	var best int64
	for r := 0; r < t.cfg.Reps; r++ {
		t0 := time.Now()
		mu.MultiplyInto(dst, a, b)
		d := time.Since(t0).Nanoseconds()
		if d < 1 {
			d = 1
		}
		if best == 0 || d < best {
			best = d
		}
		if r+1 < t.cfg.Reps && !deadline.IsZero() && !time.Now().Before(deadline) {
			break // keep what we have; best-of-so-far is still valid
		}
	}
	return best, true
}

// WriteMetrics appends the abmm_tune_* metric family to a /metrics
// scrape (an obs.MetricsWriter-compatible method; the server wires it
// when a tuner is configured).
func (t *Tuner) WriteMetrics(w io.Writer) {
	obs.WriteFamily(w, "abmm_tune_profile_loaded", "gauge", "Whether a tuning profile was installed (1) or the tuner runs profile-less (0).").Int(t.profileLoaded.Load())
	obs.WriteFamily(w, "abmm_tune_profile_entries", "gauge", "Tuned cells currently held (profile-installed plus online-measured).").Int(int64(t.cells()))
	decisions := obs.WriteFamily(w, "abmm_tune_decisions_total", "counter", "Tuner decisions on plan-cache miss, by source.")
	decisions.Int(t.fromProfile.Load(), "source", "profile")
	decisions.Int(t.fromMeasured.Load(), "source", "measured")
	decisions.Int(t.fromDefault.Load(), "source", "default")
	obs.WriteFamily(w, "abmm_tune_candidates_pruned_total", "counter", "Candidates dropped by the padding or error-bound constraint before timing.").Int(t.pruned.Load())
	obs.WriteFamily(w, "abmm_tune_runs_truncated_total", "counter", "Tuning runs cut short by the measurement budget.").Int(t.truncated.Load())
}

func (t *Tuner) cells() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

func ipow(b, e int) int {
	v := 1
	for ; e > 0; e-- {
		v *= b
	}
	return v
}
