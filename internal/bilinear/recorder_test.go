package bilinear_test

// Tests for the engine's recorder wiring: ExecIntoCancel reports every
// leaf GEMM to the recorder of the call, ExecInto to Options.Recorder.

import (
	"sync/atomic"
	"testing"
	"time"

	"abmm/internal/algos"
	"abmm/internal/bilinear"
	"abmm/internal/matrix"
	"abmm/internal/obs"
	"abmm/internal/pool"
)

// countRec counts recorder events; concurrency-safe like the interface
// demands.
type countRec struct {
	phases atomic.Int64
	muls   atomic.Int64
	arenas atomic.Int64
}

func (r *countRec) PhaseDone(obs.Phase, time.Duration) { r.phases.Add(1) }
func (r *countRec) MulDone(obs.MulInfo, time.Duration) { r.muls.Add(1) }
func (r *countRec) ArenaRelease(obs.ArenaUsage)        { r.arenas.Add(1) }
func (r *countRec) ErrorSample(float64, float64)       {}

func TestExecRecorderReachesEveryLeaf(t *testing.T) {
	alg := algos.Strassen()
	const n = 32
	a, b := matrix.New(n, n), matrix.New(n, n)
	a.FillUniform(matrix.Rand(7), -1, 1)
	b.FillUniform(matrix.Rand(8), -1, 1)

	// L=0 is one kernel call, L=1 the fused leaf step, L=2 a scheduled
	// node above it; Workers 2 runs the top node's products on the
	// fan-out's engine copy, which must report to the call's recorder.
	for _, levels := range []int{0, 1, 2} {
		for _, workers := range []int{1, 2} {
			opt := &countRec{}
			e := bilinear.NewEngine(alg.Spec, bilinear.Options{Workers: workers, Recorder: opt}, levels)

			as := bilinear.ToRecursive(a, alg.Spec.M0, alg.Spec.K0, levels, 1)
			bs := bilinear.ToRecursive(b, alg.Spec.K0, alg.Spec.N0, levels, 1)
			gemms, du, dw := 1, 1, 1
			for l := 0; l < levels; l++ {
				gemms, du, dw = gemms*alg.Spec.R, du*alg.Spec.DU(), dw*alg.Spec.DW()
			}
			want := matrix.New(dw*(as.Rows/du), bs.Cols)
			e.ExecInto(want, as, bs, pool.NewArena())
			// R^L leaf GEMMs, each reporting one pack and one kernel span.
			if got, wantN := opt.phases.Load(), int64(2*gemms); got != wantN {
				t.Fatalf("L=%d w=%d: ExecInto reported %d phase events to Options.Recorder, want %d",
					levels, workers, got, wantN)
			}

			call := &countRec{}
			got := matrix.New(want.Rows, want.Cols)
			e.ExecIntoCancel(got, as, bs, pool.NewArena(), nil, call)
			if d := matrix.MaxAbsDiff(got, want); d != 0 {
				t.Fatalf("L=%d w=%d: ExecIntoCancel computed a different product (diff %g)", levels, workers, d)
			}
			if got, wantN := call.phases.Load(), int64(2*gemms); got != wantN {
				t.Fatalf("L=%d w=%d: the call's recorder saw %d phase events, want %d", levels, workers, got, wantN)
			}
			if opt.phases.Load() != int64(2*gemms) {
				t.Fatalf("L=%d w=%d: Options.Recorder saw the ExecIntoCancel run (%d events)",
					levels, workers, opt.phases.Load())
			}
		}
	}
}
