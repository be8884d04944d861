// Package core assembles the paper's Algorithm 1: pad the operands,
// convert to the block-recursive layout, apply the input basis
// transformations φ and ψ, run the recursive-bilinear phase, apply the
// output transformation νᵀ, and convert back. It is the execution
// engine behind the public abmm API and behind every runtime and error
// experiment.
//
// The package splits deciding how to multiply from multiplying: a Plan
// compiles the decisions once per operand shape, and Multiplier keeps
// an LRU cache of plans so repeated multiplications reuse both the
// decisions and the workspace arenas they size.
package core

import (
	"context"
	"fmt"

	"abmm/internal/algos"
	"abmm/internal/matrix"
	"abmm/internal/obs"
	"abmm/internal/parallel"
)

// Options configures a multiplication. The base-case kernel blocking
// (kernel.DefaultBlocking), the automatic-depth floor (512) and the
// plan-cache size (DefaultPlanCache) are constants, not options.
type Options struct {
	// Levels is the number of recursion steps L before the classical
	// base case. Negative selects automatically: recurse while the base
	// blocks stay at least 512 in every dimension (see resolveLevels).
	Levels int
	// Workers is the degree of parallelism; 0 means GOMAXPROCS. With
	// one worker a multiplication runs entirely on the calling
	// goroutine; see bilinear.Options for how more are used.
	Workers int
	// Recorder, when non-nil, receives per-phase spans, multiplication
	// totals, and arena traffic from every execution (see
	// internal/obs). nil keeps the warm MultiplyInto path
	// allocation-free and costs a handful of branches.
	Recorder obs.Recorder
	// Plans, when non-nil, attributes telemetry to individual compiled
	// plans: each plan claims a registry slot at compile time (keyed by
	// shape, algorithm, levels, and kernel blocking) and
	// records latency, arena high-water, and sampled error into it with
	// plain atomics — the warm-path guarantees are unchanged. Several
	// Multipliers may share one registry; plans evicted from the cache
	// release their slots. See obs.PlanRegistry.
	Plans *obs.PlanRegistry
	// Tuner, when non-nil, is consulted once per plan-cache miss whose
	// recursion depth was left automatic (Levels < 0): the tuner may
	// override the algorithm, levels, and workers for that shape (from a
	// persisted tuning profile, or by bounded measurement — see
	// internal/tune). Plans compiled from a tuner decision carry a
	// "/tuned" marker in their identity (X-Abmm-Plan, /debug/plans).
	// Explicit Levels settings always win: a caller who pinned the depth
	// is never second-guessed. The warm path never consults the tuner —
	// tuning is compile-time cost only, so the 0 allocs/op warm
	// MultiplyInto guarantee holds with a Tuner attached.
	Tuner Tuner
	// ErrorSampleEvery enables sampled numerical-accuracy telemetry:
	// when positive and Recorder implements obs.ErrorSampler (or Plans
	// is set, whose slots always accept samples), every Nth
	// execution of each plan (the 1st, N+1st, ...) is re-run through the
	// quad-precision classical reference (internal/dd) and the measured
	// relative error ‖Ĉ−C_ref‖/(‖A‖‖B‖), together with the plan's
	// predicted Theorem III.8 bound f(K,L)·ε, is reported via
	// ErrorSample. Sampled executions cost one extra quad-precision
	// classical product (and allocate); the other N−1 executions pay one
	// atomic increment and keep the warm-path guarantees. 0 disables
	// sampling.
	ErrorSampleEvery int

	// tuned marks an Options value rewritten by a Tuner decision. Set
	// only by compilePlan (never by callers), it flows into the plan's
	// identity as the "/tuned" marker.
	tuned bool
}

// AutoLevels is the Levels value requesting automatic selection.
const AutoLevels = -1

// Tuner decides plan configuration on plan-cache miss. Implementations
// (see internal/tune) typically consult a persisted tuning profile
// first and fall back to bounded measurement. Choose runs on the cold
// compile path, under the plan cache's mutex — it must be bounded, and
// it must never fail: returning ok=false simply compiles the default
// configuration.
type Tuner interface {
	// Choose picks a configuration for multiplying m×k by k×n, given the
	// multiplier's default algorithm and options. ok=false means "no
	// opinion" (compile the defaults, no tuned marker).
	Choose(def *algos.Algorithm, opt Options, m, k, n int) (TunedChoice, bool)
}

// TunedChoice is a Tuner's decision for one shape. Zero-valued fields
// keep the multiplier's defaults where noted.
type TunedChoice struct {
	// Alg replaces the multiplier's algorithm; nil keeps it.
	Alg *algos.Algorithm
	// Levels is the recursion depth to compile; negative keeps automatic
	// selection.
	Levels int
	// Workers overrides the degree of parallelism; 0 keeps the default.
	Workers int
}

func (o Options) workers() int { return parallel.Resolve(o.Workers) }

// Multiplier executes a specific algorithm with fixed options. It is
// safe for concurrent use; plans compiled for previously seen operand
// shapes are cached (LRU, bounded by DefaultPlanCache) together with
// their pooled workspace arenas. Do not copy a Multiplier after first
// use.
type Multiplier struct {
	Alg *algos.Algorithm
	Opt Options

	cache planCache
}

// New returns a Multiplier for the given algorithm.
func New(alg *algos.Algorithm, opt Options) *Multiplier {
	return &Multiplier{Alg: alg, Opt: opt}
}

// Levels resolves the recursion depth for an m×k·k×n multiplication.
func (mu *Multiplier) Levels(m, k, n int) int {
	return resolveLevels(mu.Alg, mu.Opt, m, k, n)
}

// Plan returns the compiled plan for an m×k·k×n multiplication,
// building and caching it on first use. The compile closure below is
// called only on a cache miss and never escapes get; the capture is
// cold-start cost, not warm-path cost.
func (mu *Multiplier) Plan(m, k, n int) *Plan {
	// The compile closure's capture is cold-start cost (see doc above).
	//abmm:allow hotpath-alloc
	return mu.cache.get(PlanKey{M: m, K: k, N: n}, func() *Plan {
		return compilePlan(mu.Alg, mu.Opt, m, k, n)
	})
}

// compilePlan is the plan-cache miss path: when a Tuner is attached and
// the caller left the recursion depth automatic, consult it and compile
// its choice (marked tuned); otherwise compile the defaults. Runs under
// the plan cache's mutex, so a tuner that measures online blocks other
// lookups on the same Multiplier for its budget — see
// Options.Tuner and internal/tune.Config.Budget.
//
//abmm:coldpath
func compilePlan(alg *algos.Algorithm, opt Options, m, k, n int) *Plan {
	if opt.Tuner == nil || opt.Levels >= 0 {
		return NewPlan(alg, opt, m, k, n)
	}
	ch, ok := opt.Tuner.Choose(alg, opt, m, k, n)
	if !ok {
		return NewPlan(alg, opt, m, k, n)
	}
	if ch.Alg != nil {
		alg = ch.Alg
	}
	if ch.Levels >= 0 {
		opt.Levels = ch.Levels
	}
	if ch.Workers > 0 {
		opt.Workers = ch.Workers
	}
	opt.tuned = true
	return NewPlan(alg, opt, m, k, n)
}

// Stats reports plan-cache hit/miss/eviction counts and retained
// workspace bytes.
func (mu *Multiplier) Stats() CacheStats { return mu.cache.stats() }

// MultiplyInto computes dst = A·B with the configured algorithm,
// reusing (or compiling) the plan for the operand shape. dst must be
// a.Rows×b.Cols and must not alias a or b; its prior contents are
// ignored. After the first call for a shape, repeated calls allocate
// (almost) nothing: scratch comes from the plan's warm arenas.
//
//abmm:hotpath
func (mu *Multiplier) MultiplyInto(dst, a, b *matrix.Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("core: cannot multiply %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mu.Plan(a.Rows, a.Cols, b.Cols).MultiplyInto(dst, a, b)
}

// MultiplyIntoCtx is MultiplyInto under a context: the recursive phases
// poll ctx cooperatively at recursion-node boundaries and abandon the
// remaining work as soon as ctx is done, returning ctx's error. On a
// non-nil return dst holds garbage and must be discarded. A background
// (non-cancelable) ctx follows the plain warm path exactly; see
// Plan.MultiplyIntoCtx for granularity and allocation notes.
func (mu *Multiplier) MultiplyIntoCtx(ctx context.Context, dst, a, b *matrix.Matrix) error {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("core: cannot multiply %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	return mu.Plan(a.Rows, a.Cols, b.Cols).MultiplyIntoCtx(ctx, dst, a, b)
}

// Multiply computes A·B with the configured algorithm.
func (mu *Multiplier) Multiply(a, b *matrix.Matrix) *matrix.Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("core: cannot multiply %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst := matrix.New(a.Rows, b.Cols)
	mu.MultiplyInto(dst, a, b)
	return dst
}

// Multiply is a convenience wrapper: one-shot multiplication with alg.
func Multiply(alg *algos.Algorithm, a, b *matrix.Matrix, opt Options) *matrix.Matrix {
	return New(alg, opt).Multiply(a, b)
}
