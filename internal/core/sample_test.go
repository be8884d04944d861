package core_test

// Tests for the sampled accuracy telemetry (Options.ErrorSampleEvery):
// the sampling cadence, the measured-vs-bound contract (measured
// relative error must sit strictly inside the predicted Theorem III.8
// bound on benign inputs), and the policy's no-op modes.

import (
	"testing"

	"abmm/internal/algos"
	"abmm/internal/core"
	"abmm/internal/matrix"
	"abmm/internal/obs"
)

func TestErrorSamplingCadence(t *testing.T) {
	rec := obs.NewCollector()
	mu := core.New(algos.Ours(), core.Options{
		Levels: 2, Workers: 1, Recorder: rec, ErrorSampleEvery: 3,
	})
	const n = 32
	a, b, dst := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	a.FillUniform(matrix.Rand(1), -1, 1)
	b.FillUniform(matrix.Rand(2), -1, 1)
	for i := 0; i < 7; i++ {
		mu.MultiplyInto(dst, a, b)
	}
	s := rec.Snapshot()
	// Executions 1, 4, 7 are sampled: ceil(7/3).
	if s.Errors.Samples != 3 {
		t.Fatalf("7 executions at every-3: %d samples, want 3", s.Errors.Samples)
	}
	if s.Errors.Measured.Count != 3 || s.Errors.BoundRatio.Count != 3 {
		t.Fatalf("error histograms: %+v", s.Errors)
	}
	if s.Errors.Measured.Max <= 0 || s.Errors.Measured.Max > 1e-12 {
		t.Errorf("measured relative error %g out of the plausible range (0, 1e-12]", s.Errors.Measured.Max)
	}
	if r := s.Errors.BoundRatio.Max; r <= 0 || r >= 1 {
		t.Errorf("measured/bound ratio %g, want in (0, 1): measured error must sit inside the theoretical bound", r)
	}
}

func TestErrorSamplingLevelsZero(t *testing.T) {
	// The classical (levels=0) path samples too, against the classical
	// max-norm bound.
	rec := obs.NewCollector()
	mu := core.New(algos.Ours(), core.Options{
		Levels: 0, Workers: 1, Recorder: rec, ErrorSampleEvery: 1,
	})
	const n = 24
	a, b := matrix.New(n, n), matrix.New(n, n)
	a.FillUniform(matrix.Rand(3), -1, 1)
	b.FillUniform(matrix.Rand(4), -1, 1)
	mu.MultiplyInto(matrix.New(n, n), a, b)
	s := rec.Snapshot()
	if s.Errors.Samples != 1 {
		t.Fatalf("samples = %d, want 1", s.Errors.Samples)
	}
	if r := s.Errors.BoundRatio.Max; r >= 1 {
		t.Errorf("classical path exceeded its bound: ratio %g", r)
	}
}

func TestErrorSamplingDisabled(t *testing.T) {
	// Off by default; also off when the plan has no recorder at all,
	// and a typed-nil collector takes samples as no-ops — never a panic.
	const n = 16
	a, b, dst := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	a.FillUniform(matrix.Rand(5), -1, 1)
	b.FillUniform(matrix.Rand(6), -1, 1)

	rec := obs.NewCollector()
	mu := core.New(algos.Ours(), core.Options{Levels: 1, Workers: 1, Recorder: rec})
	mu.MultiplyInto(dst, a, b)
	if s := rec.Snapshot(); s.Errors.Samples != 0 {
		t.Fatalf("sampling ran without ErrorSampleEvery: %+v", s.Errors)
	}

	mu = core.New(algos.Ours(), core.Options{Levels: 1, Workers: 1, ErrorSampleEvery: 1})
	mu.MultiplyInto(dst, a, b) // nil recorder: policy inert

	var nilRec *obs.Collector
	mu = core.New(algos.Ours(), core.Options{Levels: 1, Workers: 1, Recorder: nilRec, ErrorSampleEvery: 1})
	mu.MultiplyInto(dst, a, b) // typed-nil collector: ErrorSample is a no-op
}
