package core_test

// Tests for the per-request tracing hook: a reqtrace.Trace carried by
// the MultiplyIntoCtx context receives the execution's phase events
// (teed alongside the plan's own recorder) without changing the
// product.

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"abmm/internal/algos"
	"abmm/internal/core"
	"abmm/internal/matrix"
	"abmm/internal/obs"
	"abmm/internal/reqtrace"
)

func TestMultiplyIntoCtxTracedSpans(t *testing.T) {
	const n = 64
	a, b := matrix.New(n, n), matrix.New(n, n)
	a.FillUniform(matrix.Rand(1), -1, 1)
	b.FillUniform(matrix.Rand(2), -1, 1)

	col := obs.NewCollector()
	mu := core.New(algos.Strassen(), core.Options{Levels: 2, Workers: 1, Recorder: col})

	tr := reqtrace.New()
	ctx := reqtrace.NewContext(context.Background(), tr)
	dst := matrix.New(n, n)
	if err := mu.MultiplyIntoCtx(ctx, dst, a, b); err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(dst, refMul(a, b)); d > 1e-10 {
		t.Fatalf("traced product wrong by %g", d)
	}
	tr.Finish(reqtrace.OutcomeOK, "")
	snap := tr.Snapshot()

	// Every pipeline phase the collector counted must appear as a span
	// on the trace — that is the "can't drift" property of sharing the
	// Recorder seam.
	want := map[string]bool{}
	cs := col.Snapshot()
	for _, p := range cs.Phases[:obs.NumPipelinePhases] {
		if p.Count > 0 {
			want[p.Name] = true
		}
	}
	if len(want) == 0 {
		t.Fatal("collector saw no pipeline phases")
	}
	got := map[string]bool{}
	for _, sp := range snap.Spans {
		got[sp.Name] = true
	}
	for name := range want {
		if !got[name] {
			t.Errorf("collector counted phase %q but the trace has no such span (spans: %v)", name, snap.Spans)
		}
	}
	// The nested kernel sub-phases aggregate rather than span.
	if snap.Engine.KernelCalls == 0 || snap.Engine.PackCalls == 0 {
		t.Errorf("traced execution reported no pack/kernel aggregates: %+v", snap.Engine)
	}
	if snap.Shape != "64x64x64" || snap.Levels != 2 {
		t.Errorf("trace mul info: shape=%q levels=%d", snap.Shape, snap.Levels)
	}
	// And the collector still aggregated globally despite the tee.
	if cs.Mults != 1 {
		t.Errorf("collector counted %d mults, want 1", cs.Mults)
	}
}

// TestMultiplyIntoCtxTracedSpanSum checks the acceptance property that
// span durations stay consistent with the Collector's phase totals:
// both sides of the tee see the same PhaseDone durations.
func TestMultiplyIntoCtxTracedSpanSum(t *testing.T) {
	const n = 64
	a, b := matrix.New(n, n), matrix.New(n, n)
	a.FillUniform(matrix.Rand(3), -1, 1)
	b.FillUniform(matrix.Rand(4), -1, 1)

	col := obs.NewCollector()
	mu := core.New(algos.Strassen(), core.Options{Levels: 1, Workers: 1, Recorder: col})
	tr := reqtrace.New()
	ctx := reqtrace.NewContext(context.Background(), tr)
	dst := matrix.New(n, n)
	if err := mu.MultiplyIntoCtx(ctx, dst, a, b); err != nil {
		t.Fatal(err)
	}
	tr.Finish(reqtrace.OutcomeOK, "")

	var spanSum int64
	for _, sp := range tr.Snapshot().Spans {
		spanSum += sp.EndNs - sp.StartNs
	}
	var phaseSum float64
	for _, p := range col.Snapshot().Phases[:obs.NumPipelinePhases] {
		phaseSum += p.Seconds
	}
	diff := time.Duration(spanSum) - time.Duration(phaseSum*1e9)
	if diff < 0 {
		diff = -diff
	}
	// Identical events, so only float rounding separates the sums.
	if diff > time.Millisecond {
		t.Fatalf("trace span sum %v vs collector phase sum %v differ by %v",
			time.Duration(spanSum), time.Duration(phaseSum*1e9), diff)
	}
}

// phaseCountRec counts the kernel's pack and kernel spans.
type phaseCountRec struct {
	pack, kernel atomic.Int64
}

func (r *phaseCountRec) PhaseDone(p obs.Phase, d time.Duration) {
	switch p {
	case obs.PhasePack:
		r.pack.Add(1)
	case obs.PhaseKernel:
		r.kernel.Add(1)
	}
}

func (r *phaseCountRec) MulDone(obs.MulInfo, time.Duration) {}
func (r *phaseCountRec) ArenaRelease(obs.ArenaUsage)        {}
func (r *phaseCountRec) ErrorSample(float64, float64)       {}

// TestKernelSpansReachPlanRecorderAtEveryDepth pins the one road down:
// the plan's recorder receives one pack and one kernel span per leaf
// GEMM at every depth and worker count, and a traced MultiplyIntoCtx
// files the same counts in the trace's pack/kernel aggregates.
func TestKernelSpansReachPlanRecorderAtEveryDepth(t *testing.T) {
	alg := algos.Strassen()
	const n = 64
	a, b := matrix.New(n, n), matrix.New(n, n)
	a.FillUniform(matrix.Rand(5), -1, 1)
	b.FillUniform(matrix.Rand(6), -1, 1)
	for _, levels := range []int{0, 1, 2} {
		gemms := int64(1)
		for l := 0; l < levels; l++ {
			gemms *= int64(alg.Spec.R)
		}
		for _, workers := range []int{1, 2} {
			rec := &phaseCountRec{}
			plan := core.NewPlan(alg, core.Options{Levels: levels, Workers: workers, Recorder: rec}, n, n, n)
			dst := matrix.New(n, n)
			plan.MultiplyInto(dst, a, b)
			if rec.pack.Load() != gemms || rec.kernel.Load() != gemms {
				t.Errorf("L=%d w=%d: plan recorder saw %d pack and %d kernel spans, want %d each",
					levels, workers, rec.pack.Load(), rec.kernel.Load(), gemms)
			}

			tr := reqtrace.New()
			if err := plan.MultiplyIntoCtx(reqtrace.NewContext(context.Background(), tr), dst, a, b); err != nil {
				t.Fatal(err)
			}
			tr.Finish(reqtrace.OutcomeOK, "")
			eng := tr.Snapshot().Engine
			if eng.PackCalls != gemms || eng.KernelCalls != gemms {
				t.Errorf("L=%d w=%d: trace filed %d pack and %d kernel calls, want %d each",
					levels, workers, eng.PackCalls, eng.KernelCalls, gemms)
			}
			if rec.pack.Load() != 2*gemms || rec.kernel.Load() != 2*gemms {
				t.Errorf("L=%d w=%d: plan recorder missed the traced run's spans (%d pack, %d kernel after two runs)",
					levels, workers, rec.pack.Load(), rec.kernel.Load())
			}
		}
	}
}
