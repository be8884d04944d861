// Package abmm is a pure-Go implementation of alternative basis fast
// matrix multiplication, reproducing "Alternative Basis Matrix
// Multiplication is Fast and Stable" (Schwartz, Toledo, Vaknin,
// Wiernik; IPDPS 2024).
//
// The library multiplies dense float64 matrices with recursive bilinear
// ⟨M₀,K₀,N₀;R⟩ algorithms — Strassen, Winograd, Laderman, and the
// paper's alternative basis algorithms that simultaneously attain the
// optimal arithmetic leading coefficient (5) and the optimal stability
// factor (12) for the 2×2 base case — together with the analysis
// machinery of the paper: stability vectors and factors, prefactors,
// error bounds, exact arithmetic-cost accounting, diagonal scaling, and
// communication-cost models.
//
// # Quick start
//
//	a := abmm.NewMatrix(n, n)
//	b := abmm.NewMatrix(n, n)
//	// ... fill a and b ...
//	alg, _ := abmm.Lookup("ours")
//	c := abmm.Multiply(alg, a, b, abmm.Options{Levels: abmm.AutoLevels})
//
// When multiplying repeatedly, build a Multiplier once and use
// MultiplyInto: plans (recursion depth, padding, compiled schedules,
// sized workspace) are cached per operand shape, so steady-state calls
// allocate nothing beyond the destination you pass:
//
//	mu := abmm.NewMultiplier(alg, abmm.Options{Levels: abmm.AutoLevels})
//	c := abmm.NewMatrix(n, n)
//	for i := 0; i < reps; i++ {
//		mu.MultiplyInto(c, a, b) // reuses the cached plan and arenas
//	}
//	fmt.Println(mu.Stats())      // plan-cache hits/misses, arena bytes
//
// All algorithms are defined by exact rational coefficient data and are
// machine-verified against the Brent triple-product equations; the
// engine runs CSE-scheduled linear phases over a block-recursive
// layout, parallelized with goroutines.
package abmm

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sort"
	"sync"

	"abmm/internal/algos"
	"abmm/internal/core"
	"abmm/internal/dd"
	"abmm/internal/kernel"
	"abmm/internal/matrix"
	"abmm/internal/obs"
	"abmm/internal/pool"
	"abmm/internal/scaling"
	"abmm/internal/stability"
)

// Matrix is a dense row-major float64 matrix (possibly a view into a
// larger one).
type Matrix = matrix.Matrix

// Algorithm is a (possibly alternative basis) fast matrix
// multiplication algorithm.
type Algorithm = algos.Algorithm

// Options configures a multiplication; see the field docs on
// core.Options.
type Options = core.Options

// AutoLevels requests automatic recursion-depth selection.
const AutoLevels = core.AutoLevels

// NewMatrix returns a zeroed r-by-c matrix.
func NewMatrix(r, c int) *Matrix { return matrix.New(r, c) }

// FromRows builds a matrix from row slices (copied).
func FromRows(rows [][]float64) *Matrix { return matrix.FromRows(rows) }

// Multiplier executes one algorithm with fixed options, caching a
// compiled Plan (LRU, keyed by operand shape) and pooled workspace
// arenas across calls. It is safe for concurrent use from multiple
// goroutines; see MultiplyInto and Stats.
type Multiplier = core.Multiplier

// Plan is a multiplication compiled for one operand shape; obtain one
// from Multiplier.Plan to amortize even the cache lookup.
type Plan = core.Plan

// CacheStats reports a Multiplier's plan-cache hits, misses, evictions,
// live plan count, and retained workspace bytes.
type CacheStats = core.CacheStats

// PlanRegistry is the bounded per-plan telemetry registry: attach one
// via Options.Plans and every compiled plan claims a slot keyed by
// (shape, algorithm, levels, kernel blocking), recording
// latency, arena high-water, and sampled error per plan with plain
// atomics — the warm MultiplyInto path stays 0 allocs/op. Several
// Multipliers may share one registry; the serving layer surfaces it at
// /debug/plans and as abmm_plan_* metric families.
type PlanRegistry = obs.PlanRegistry

// PlanStats is one plan's aggregate in a PlanRegistry page.
type PlanStats = obs.PlanStats

// PlansPage is the registry export served by /debug/plans.
type PlansPage = obs.PlansPage

// NewPlanRegistry returns a per-plan telemetry registry bounded to
// maxPlans identities (0 selects obs.DefaultMaxPlans); plans beyond the
// bound share one "other" overflow slot, which also caps metric label
// cardinality.
func NewPlanRegistry(maxPlans int) *PlanRegistry { return obs.NewPlanRegistry(maxPlans) }

// SLOConfig declares latency/error service objectives for the serving
// layer's burn-rate SLO engine; see obs.SLOConfig and server.Config.SLO.
type SLOConfig = obs.SLOConfig

// Recorder receives execution events (per-phase spans, multiplication
// totals, arena traffic, and the sampled accuracy measurements of
// Options.ErrorSampleEvery) from every multiplication run with it in
// Options.Recorder. A nil Recorder disables recording and keeps the
// warm MultiplyInto path at 0 allocs/op.
type Recorder = obs.Recorder

// Collector is the standard Recorder: race-safe atomic aggregation
// with JSON (Snapshot), human-readable (Snapshot().Report()), and
// expvar (PublishStats) export. Attach one via Options.Recorder:
//
//	rec := abmm.NewCollector()
//	mu := abmm.NewMultiplier(alg, abmm.Options{Recorder: rec})
//	mu.MultiplyInto(c, a, b)
//	fmt.Println(rec.Snapshot().Report())
type Collector = obs.Collector

// Snapshot is a point-in-time copy of a Collector: per-phase wall time
// and shares, classical-equivalent and effective GFLOPS, task and
// arena counters, latency/arena/error histograms (p50/p95/p99), and
// the sampled measured-vs-bound accuracy summary.
type Snapshot = obs.Snapshot

// HistStats is the distribution summary (count, p50/p95/p99, max)
// embedded in Snapshot histogram fields.
type HistStats = obs.HistStats

// NewCollector returns an empty stats Collector.
func NewCollector() *Collector { return obs.NewCollector() }

// PublishStats registers a Collector with the expvar registry so
// /debug/vars serves live engine snapshots; re-registering a name is a
// no-op.
func PublishStats(name string, c *Collector) { obs.Publish(name, c) }

// StatsServer is a running observability HTTP server; see ServeStats.
type StatsServer = obs.Server

// ServeStats starts the stdlib-only observability HTTP server for a
// Collector on addr (":0" picks a free port): Prometheus text format
// at /metrics, the expvar registry at /debug/vars (use PublishStats to
// register the collector there), and net/http/pprof under
// /debug/pprof. Serving continues in the background until Close.
func ServeStats(addr string, c *Collector) (*StatsServer, error) { return obs.Serve(addr, c) }

// MetricsWriter appends extra Prometheus-text metric families to a
// /metrics scrape; see MountStats.
type MetricsWriter = obs.MetricsWriter

// MountStats registers the observability endpoints — /metrics,
// /debug/vars, and /debug/pprof — on an existing mux, so one
// http.Server (and one port) carries both application routes and
// observability. Each extra writer is invoked after the collector's
// families on every /metrics scrape; the serving layer uses this to
// publish its request, queue, and admission metrics alongside the
// engine's. ServeStats is a convenience built on it.
func MountStats(mux *http.ServeMux, c *Collector, extra ...MetricsWriter) {
	obs.Mount(mux, c, extra...)
}

// NewMultiplier returns a reusable Multiplier for the algorithm. Prefer
// it over repeated Multiply calls when multiplying many times: the
// per-shape setup (levels, padding, schedule compilation, workspace
// sizing) runs once and scratch buffers are recycled.
func NewMultiplier(alg *Algorithm, opt Options) *Multiplier {
	return core.New(alg, opt)
}

// Multiply computes a·b with the given algorithm.
func Multiply(alg *Algorithm, a, b *Matrix, opt Options) *Matrix {
	return core.Multiply(alg, a, b, opt)
}

// MultiplyClassical computes a·b with the packed classical kernel, the
// base case every fast algorithm recurses to and the library's DGEMM
// stand-in, on workers goroutines (≤ 0 means GOMAXPROCS). The result is
// bitwise equal to the textbook triple loop at every worker count.
func MultiplyClassical(a, b *Matrix, workers int) *Matrix {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	c := matrix.New(a.Rows, b.Cols)
	kernel.Mul(c, a, b, kernel.Blocking{}, workers, pool.NewArena(), nil)
	return c
}

// ScalingMethod selects a diagonal scaling strategy for
// MultiplyScaled; see the scaling package constants mirrored below.
type ScalingMethod = scaling.Method

// Scaling methods (Section V of the paper).
const (
	ScaleNone          = scaling.None
	ScaleOutside       = scaling.Outside
	ScaleInside        = scaling.Inside
	ScaleOutsideInside = scaling.OutsideInside
	ScaleInsideOutside = scaling.InsideOutside
	ScaleRepeatedOI    = scaling.RepeatedOutsideInside
)

// MultiplyScaled computes a·b with diagonal scaling wrapped around the
// fast algorithm, improving component-wise accuracy on badly scaled
// inputs at O(n²) extra cost.
func MultiplyScaled(alg *Algorithm, a, b *Matrix, opt Options, method ScalingMethod) *Matrix {
	cfg := scaling.NewConfig(method)
	cfg.Workers = opt.Workers
	mu := core.New(alg, opt)
	return scaling.Multiply(cfg, a, b, func(x, y *Matrix) *Matrix {
		return mu.Multiply(x, y)
	})
}

// ReferenceProduct computes the classical product in double-double
// (≈106-bit) arithmetic and rounds to float64: the quad-precision
// oracle used by the paper's error measurements.
func ReferenceProduct(a, b *Matrix, workers int) *Matrix {
	return dd.ReferenceProduct(a, b, workers)
}

// registry maps catalog names to lazily-constructed algorithms.
var registry = map[string]func() *Algorithm{
	"classical":    func() *Algorithm { return algos.Classical(2, 2, 2) },
	"strassen":     algos.Strassen,
	"winograd":     algos.Winograd,
	"ours":         algos.Ours,
	"alt-winograd": algos.AltWinograd,
	"laderman":     algos.Laderman,
	"laderman-alt": algos.LadermanAlt,
	"hk223":        algos.HopcroftKerr223,
	"rect323":      algos.Rect323,
}

var (
	cacheMu    sync.Mutex
	algCache   = map[string]*Algorithm{}
	cacheNames []string
)

// Names lists the catalog algorithm names in sorted order.
func Names() []string {
	if cacheNames == nil {
		for n := range registry {
			cacheNames = append(cacheNames, n)
		}
		sort.Strings(cacheNames)
	}
	return append([]string(nil), cacheNames...)
}

// Lookup returns the named catalog algorithm. Construction (including
// exact basis derivation) happens once per name.
func Lookup(name string) (*Algorithm, error) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if alg, ok := algCache[name]; ok {
		return alg, nil
	}
	ctor, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("abmm: unknown algorithm %q (have %v)", name, Names())
	}
	// Construction runs under cacheMu deliberately: concurrent Lookups
	// of one name must not derive the exact basis twice.
	//abmm:allow lock-discipline
	alg := ctor()
	algCache[name] = alg
	return alg, nil
}

// Info summarizes an algorithm's analytic properties.
type Info struct {
	Name string
	// Base case ⟨M0,K0,N0;R⟩.
	M0, K0, N0, R int
	AltBasis      bool
	// BilinearAdditions is the CSE-scheduled additions per recursion
	// step; TransformAdditions the per-step basis transformation
	// additions.
	BilinearAdditions  int
	TransformAdditions int
	// LeadingCoefficient of the arithmetic cost (e.g. 7 for Strassen,
	// 6 for Winograd, 5 for the alternative basis algorithms).
	LeadingCoefficient float64
	// StabilityFactor E and the prefactors Q (tight) and QLoose (Q')
	// of the error bound (1 + Q·log_{N0}n)·n^{log_{N0}E}.
	StabilityFactor float64
	Q, QLoose       int
	// ErrorExponent is log_{N0} E.
	ErrorExponent float64
}

// InfoFor computes the analytic summary of an algorithm.
func InfoFor(alg *Algorithm) Info {
	s := alg.Spec
	ea, eb, dec := s.ScheduledAdditions()
	info := Info{
		Name: alg.Name,
		M0:   s.M0, K0: s.K0, N0: s.N0, R: s.R,
		AltBasis:           alg.IsAltBasis(),
		BilinearAdditions:  ea + eb + dec,
		LeadingCoefficient: stability.LeadingCoefficient(alg),
		StabilityFactor:    stability.FactorFloat(alg),
		Q:                  stability.Prefactor(alg),
		QLoose:             stability.PrefactorLoose(alg),
		ErrorExponent:      stability.ErrorExponent(alg),
	}
	if alg.Phi != nil {
		info.TransformAdditions += alg.Phi.Additions()
	}
	if alg.Psi != nil {
		info.TransformAdditions += alg.Psi.Additions()
	}
	if alg.Nu != nil {
		info.TransformAdditions += alg.Nu.Transposed().Additions()
	}
	return info
}

// ErrorBound evaluates the Theorem I.1 forward error bound factor
// f(n) for the algorithm on an n×n problem: ‖Ĉ−C‖ ≤ f(n)·‖A‖‖B‖·ε.
func ErrorBound(alg *Algorithm, n float64) float64 {
	return stability.ErrorBound(alg, n)
}

// MeasureMaxError multiplies `runs` random n×n pairs drawn from dist
// with the algorithm and returns the maximum absolute error against
// the quad-precision classical reference — the measurement behind
// Figures 2(C), 2(D) and 3.
func MeasureMaxError(alg *Algorithm, n, levels, runs int, dist Dist, seed uint64, workers int) float64 {
	max := 0.0
	mu := core.New(alg, Options{Levels: levels, Workers: workers})
	a, b, got := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	for run := 0; run < runs; run++ {
		rng := rand.New(rand.NewPCG(seed+uint64(run), seed^(uint64(run)*2654435761+1)))
		matrix.FillPair(a, b, dist, rng)
		mu.MultiplyInto(got, a, b)
		ref := dd.ReferenceProduct(a, b, workers)
		if d := matrix.MaxAbsDiff(got, ref); d > max {
			max = d
		}
	}
	return max
}

// Dist identifies an input distribution for experiments.
type Dist = matrix.Dist

// Experiment input distributions (Section VI).
const (
	DistSymmetric          = matrix.DistSymmetric
	DistPositive           = matrix.DistPositive
	DistAdversarialOutside = matrix.DistAdversarialOutside
	DistAdversarialInside  = matrix.DistAdversarialInside
)

// Rand returns the library's deterministic PRNG for a seed; use with
// Matrix fill helpers for reproducible experiments.
func Rand(seed uint64) *rand.Rand { return matrix.Rand(seed) }

// FillPair fills a multiplication operand pair according to an
// experiment distribution (the adversarial distributions treat A and B
// asymmetrically, so both are filled together).
func FillPair(a, b *Matrix, dist Dist, rng *rand.Rand) { matrix.FillPair(a, b, dist, rng) }
