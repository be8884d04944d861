package bilinear_test

// Tests for Engine.WithRecorder: the shallow rebind the serving layer
// uses to attach a per-request recorder to a cached plan's engine.

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

func TestEngineWithRecorder(t *testing.T) {
	alg := algos.Strassen()
	const n = 32
	a, b := matrix.New(n, n), matrix.New(n, n)
	a.FillUniform(matrix.Rand(7), -1, 1)
	b.FillUniform(matrix.Rand(8), -1, 1)

	// Workers 1 at L=1 runs the fused leaf step on the calling
	// goroutine. Workers 2 at L=2 runs the top node's products on an
	// engine copy taken at dispatch, which must keep the rebound
	// recorder rather than the one the engine was built with.
	for _, cfg := range []struct{ workers, levels int }{{1, 1}, {2, 2}} {
		base := &countRec{}
		e := bilinear.NewEngine(alg.Spec, bilinear.Options{Workers: cfg.workers, Recorder: base}, cfg.levels)

		if e.WithRecorder(base) != e {
			t.Fatal("WithRecorder with the current recorder should return the engine unchanged")
		}
		per := &countRec{}
		e2 := e.WithRecorder(per)
		if e2 == e {
			t.Fatal("WithRecorder with a new recorder should return a copy")
		}

		as := bilinear.ToRecursive(a, alg.Spec.M0, alg.Spec.K0, cfg.levels, 1)
		bs := bilinear.ToRecursive(b, alg.Spec.K0, alg.Spec.N0, cfg.levels, 1)
		gemms, du, dw := 1, 1, 1
		for l := 0; l < cfg.levels; l++ {
			gemms, du, dw = gemms*alg.Spec.R, du*alg.Spec.DU(), dw*alg.Spec.DW()
		}
		run := func(eng *bilinear.Engine) *matrix.Matrix {
			cs := matrix.New(dw*(as.Rows/du), bs.Cols)
			eng.ExecInto(cs, as, bs, pool.Global)
			return cs
		}
		want := run(e)
		base0 := base.phases.Load()

		got := run(e2)
		if d := matrix.MaxAbsDiff(got, want); d != 0 {
			t.Fatalf("%+v: rebound engine computed a different product (diff %g)", cfg, d)
		}
		// R^L leaf GEMMs, each reporting one pack and one kernel span.
		if got, want := per.phases.Load(), int64(2*gemms); got != want {
			t.Fatalf("%+v: per-request recorder saw %d phase events, want %d", cfg, got, want)
		}
		if base.phases.Load() != base0 {
			t.Fatalf("%+v: original engine's recorder saw the rebound run (%d -> %d events)",
				cfg, base0, base.phases.Load())
		}
	}
	// A nil engine stays nil (level-0 plans have no engine).
	var nilEng *bilinear.Engine
	if nilEng.WithRecorder(&countRec{}) != nil {
		t.Fatal("nil engine should rebind to nil")
	}
}
