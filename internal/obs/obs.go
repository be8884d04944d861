// Package obs is the observability layer of the multiply engine: it
// attributes a multiplication's runtime to the phases of the paper's
// Algorithm 1 (pad/stage → forward basis transforms → recursive
// bilinear core → inverse transform → unstack/crop), the same
// decomposition the paper's Section VI evaluation uses to separate
// transform overhead from the recursion and the classical base case.
//
// The layer is built around three pieces:
//
//   - Recorder, a small interface the execution layers call at phase
//     boundaries. A nil Recorder (and a nil *Collector) is a no-op; the
//     span helpers below reduce to value-type bookkeeping with no time
//     reads, no allocation, and no atomic traffic, so the warm
//     MultiplyInto path keeps its 0 allocs/op guarantee when
//     observability is off (pinned by TestMultiplyIntoZeroAllocWarm and
//     BenchmarkMultiplyInto_NoopRecorder).
//
//   - Collector, the concrete Recorder: per-phase wall time and counts,
//     multiplication totals with classical and fast-algorithm flop
//     counts (for both effective-GFLOPS views), task spawn/inline
//     counters from the parallel engine, and arena traffic — all atomic,
//     so concurrent executions of a shared Multiplier aggregate safely.
//
//   - Spans, which additionally annotate the Go execution tracer
//     (runtime/trace task per multiplication, region per phase, plus
//     per-recursion-level regions emitted by the bilinear engine) and,
//     optionally, tag goroutine pprof labels per phase so CPU profiles
//     can be split by pipeline phase. Trace annotations are gated on
//     trace.IsEnabled and work even with a nil Recorder, so `go test
//     -trace` and `cmd/abmm -trace` see the pipeline structure for free.
package obs

import (
	"context"
	"runtime/pprof"
	"runtime/trace"
	"time"
)

// Phase identifies one stage of the Algorithm 1 pipeline.
type Phase uint8

const (
	// PhasePad covers operand staging: zero-padding to the divisible
	// shape (when needed) and conversion to the block-recursive layout.
	PhasePad Phase = iota
	// PhaseForward covers the forward basis transformations φ(A), ψ(B).
	PhaseForward
	// PhaseBilinear covers the recursive bilinear core, including the
	// classical base-case multiplications.
	PhaseBilinear
	// PhaseInverse covers the output basis transformation νᵀ(C̃).
	PhaseInverse
	// PhaseCrop covers conversion back from the recursive layout and the
	// crop to the caller's shape.
	PhaseCrop

	// PhasePack covers copying operand blocks into packed micro-panels
	// inside the base-case kernel, including any fused linear
	// combinations formed during the copy. It is a sub-phase nested
	// inside PhaseBilinear (or PhaseForward/PhaseInverse time it
	// replaces), not a sixth pipeline stage: pack+kernel time is also
	// counted by the enclosing pipeline phase. It is recorded once per
	// kernel call, so when the engine runs the top node's products
	// concurrently the spans add up busy time across workers: per
	// multiplication, pack+kernel can reach min(workers, R) times the
	// enclosing PhaseBilinear wall time.
	PhasePack
	// PhaseKernel covers the register-tiled micro-kernel compute of the
	// base-case kernel: everything the kernel does that is not packing.
	// Like PhasePack it nests inside the enclosing pipeline phase and
	// is recorded per kernel call, summing across concurrent calls.
	PhaseKernel

	// NumPhases is the number of recorded phases (pipeline stages plus
	// the nested kernel sub-phases).
	NumPhases = 7
	// NumPipelinePhases is the number of top-level Algorithm 1 pipeline
	// stages (pad through crop). Their durations partition a
	// multiplication's wall time; the sub-phases at indices >=
	// NumPipelinePhases overlap them and must be excluded when summing
	// phase shares to a whole.
	NumPipelinePhases = 5
)

var phaseNames = [NumPhases]string{"pad", "forward", "bilinear", "inverse", "crop", "pack", "kernel"}

// String returns the phase's short name ("pad", "forward", "bilinear",
// "inverse", "crop", "pack", "kernel"); these are also the trace region
// and pprof label values.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// MulInfo describes one multiplication for MulDone: the operand shape,
// compiled recursion depth, and the two flop accountings an effective
// GFLOPS rate can be derived against — the classical count 2mkn of the
// problem solved, and the algorithm's exact scalar operation count
// (which is lower for fast algorithms; the ratio is the paper's
// arithmetic saving).
type MulInfo struct {
	M, K, N int
	Levels  int
	// ClassicalFlops is 2mkn for the caller's (unpadded) shape.
	ClassicalFlops int64
	// AlgFlops is the exact operation count of the compiled algorithm at
	// the padded shape (stability.ArithmeticCost).
	AlgFlops int64
}

// ArenaUsage reports workspace-arena traffic for one execution.
type ArenaUsage struct {
	// AllocBytes is the arena's lifetime allocated float storage — in
	// steady state, the plan's resident workspace footprint.
	AllocBytes int64
	// HighWaterBytes is the peak simultaneously-outstanding scratch the
	// arena has ever served (per-size-class high-water marks summed).
	HighWaterBytes int64
	// RequestedBytes is the float scratch requested during this
	// execution; ReusedBytes is the portion served from warm free lists
	// rather than fresh allocation. A warm execution has
	// ReusedBytes == RequestedBytes.
	RequestedBytes int64
	ReusedBytes    int64
}

// Recorder receives execution events from the multiply pipeline. All
// methods must be safe for concurrent use: a shared Multiplier executes
// plans from many goroutines, and with more than one worker the engine
// reports kernel spans from the goroutines running the top node's
// products. A nil Recorder disables recording;
// implementations should also tolerate nil receivers so a typed-nil
// *Collector stays a no-op.
type Recorder interface {
	// PhaseDone reports one completed pipeline phase.
	PhaseDone(p Phase, d time.Duration)
	// MulDone reports one completed multiplication.
	MulDone(info MulInfo, total time.Duration)
	// ArenaRelease reports workspace traffic when an execution returns
	// its arena.
	ArenaRelease(u ArenaUsage)
}

// PprofLabeler is an optional Recorder refinement: when PprofLabels
// reports true, spans tag the executing goroutine with an "abmm_phase"
// pprof label for the duration of each phase, so CPU profiles collected
// while recording can be grouped by pipeline phase.
type PprofLabeler interface {
	PprofLabels() bool
}

// ErrorSampler is an optional Recorder refinement for sampled
// numerical-accuracy telemetry. When the execution layer re-runs a
// multiplication through the quad-precision classical reference (see
// core.Options.ErrorSampleEvery), it reports the measured relative
// error ‖Ĉ−C_ref‖/(‖A‖‖B‖) in max norms together with the predicted
// Theorem III.8 bound factor f(K,L)·ε the plan was compiled with, so a
// collector can track the measured-vs-bound ratio continuously.
// Implementations must be safe for concurrent use and tolerate nil
// receivers, like Recorder.
type ErrorSampler interface {
	ErrorSample(measured, bound float64)
}

// MulSpan tracks one multiplication. It is a value type: copying is
// cheap and the zero value (from StartMul with a nil recorder and
// tracing off) makes every method a no-op.
type MulSpan struct {
	rec    Recorder
	info   MulInfo
	start  time.Time
	ctx    context.Context
	task   *trace.Task
	labels bool
}

// StartMul opens a span for one multiplication. When rec is nil and the
// execution tracer is off it returns the zero span, which costs nothing
// to end. When the tracer is on it opens a trace task named
// "abmm.multiply" that the phase regions attach to.
func StartMul(rec Recorder, info MulInfo) MulSpan {
	tracing := trace.IsEnabled()
	if rec == nil && !tracing {
		return MulSpan{}
	}
	ms := MulSpan{rec: rec, info: info}
	if tracing {
		// The runtime/trace task is process-scoped and owns its own
		// lifetime (ended by MulSpan.End); there is no caller ctx here.
		//abmm:allow ctx-discipline
		ms.ctx, ms.task = trace.NewTask(context.Background(), "abmm.multiply")
	}
	if l, ok := rec.(PprofLabeler); ok && l.PprofLabels() {
		ms.labels = true
		if ms.ctx == nil {
			// Same process-scoped root for the pprof label set.
			//abmm:allow ctx-discipline
			ms.ctx = context.Background()
		}
	}
	if rec != nil {
		ms.start = time.Now()
	}
	return ms
}

// StartPhase opens a phase span: a wall-clock measurement for the
// recorder, a trace region when tracing, and a goroutine pprof label
// when the recorder asked for labels.
func (ms MulSpan) StartPhase(p Phase) PhaseSpan {
	if ms.rec == nil && ms.task == nil {
		return PhaseSpan{}
	}
	ps := PhaseSpan{rec: ms.rec, phase: p}
	if ms.task != nil {
		ps.region = trace.StartRegion(ms.ctx, p.String())
	}
	if ms.labels {
		ps.ctx = ms.ctx
		ps.labels = true
		// Opt-in profiling branch: labels cost allocations only when
		// the recorder explicitly asked for pprof labeling.
		//abmm:allow hotpath-alloc
		pprof.SetGoroutineLabels(pprof.WithLabels(ms.ctx, pprof.Labels("abmm_phase", p.String())))
	}
	if ms.rec != nil {
		ps.start = time.Now()
	}
	return ps
}

// End closes the multiplication span, reporting the total to the
// recorder and ending the trace task.
func (ms MulSpan) End() {
	if ms.task != nil {
		ms.task.End()
	}
	if ms.rec != nil {
		ms.rec.MulDone(ms.info, time.Since(ms.start))
	}
}

// PhaseSpan tracks one pipeline phase; see MulSpan.StartPhase.
type PhaseSpan struct {
	rec    Recorder
	phase  Phase
	start  time.Time
	region *trace.Region
	ctx    context.Context
	labels bool
}

// End closes the phase span. It must run on the goroutine that opened
// it (trace regions and goroutine labels are goroutine-local).
func (ps PhaseSpan) End() {
	if ps.region != nil {
		ps.region.End()
	}
	if ps.labels {
		pprof.SetGoroutineLabels(ps.ctx)
	}
	if ps.rec != nil {
		ps.rec.PhaseDone(ps.phase, time.Since(ps.start))
	}
}
