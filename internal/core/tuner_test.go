package core_test

import (
	"strings"
	"testing"

	"abmm/internal/algos"
	"abmm/internal/core"
	"abmm/internal/matrix"
	"abmm/internal/obs"
)

// fakeTuner is a scripted core.Tuner: it records every consultation and
// answers with a fixed choice.
type fakeTuner struct {
	calls  int
	choice core.TunedChoice
	ok     bool
}

func (f *fakeTuner) Choose(def *algos.Algorithm, opt core.Options, m, k, n int) (core.TunedChoice, bool) {
	f.calls++
	return f.choice, f.ok
}

// TestTunerAppliedOnCacheMiss pins the compile-path contract: with
// automatic levels and a tuner attached, the cache miss consults the
// tuner exactly once per shape, compiles its choice, and marks the plan
// identity "/tuned" — and the result is still the right product.
func TestTunerAppliedOnCacheMiss(t *testing.T) {
	ours := algos.Ours()
	strassen := algos.Strassen()
	ft := &fakeTuner{choice: core.TunedChoice{Alg: strassen, Levels: 1}, ok: true}
	reg := obs.NewPlanRegistry(0)
	mu := core.New(ours, core.Options{Levels: core.AutoLevels, Workers: 1, Tuner: ft, Plans: reg})

	const n = 64
	a, b := matrix.New(n, n), matrix.New(n, n)
	a.FillUniform(matrix.Rand(1), -1, 1)
	b.FillUniform(matrix.Rand(2), -1, 1)

	p := mu.Plan(n, n, n)
	if ft.calls != 1 {
		t.Fatalf("tuner consulted %d times on first miss, want 1", ft.calls)
	}
	if !p.Tuned() {
		t.Error("plan not marked tuned")
	}
	if p.Alg() != strassen || p.Levels() != 1 {
		t.Errorf("plan compiled %s/L%d, want the tuner's strassen/L1", p.Alg().Name, p.Levels())
	}
	if p.Desc() != "strassen/L1/seq/tuned" {
		t.Errorf("Desc = %q, want strassen/L1/seq/tuned", p.Desc())
	}

	// Cache hit: no re-consultation, same plan.
	if again := mu.Plan(n, n, n); again != p || ft.calls != 1 {
		t.Errorf("cache hit re-consulted the tuner (calls=%d)", ft.calls)
	}

	// The tuned plan still multiplies correctly.
	dst := matrix.New(n, n)
	p.MultiplyInto(dst, a, b)
	want := matrix.New(n, n)
	matrix.Mul(want, a, b, 1)
	if d := matrix.MaxAbsDiff(dst, want); d > 1e-10 {
		t.Errorf("tuned plan wrong by %g", d)
	}

	// The registry slot carries the marker too.
	page := reg.Page()
	if len(page.Plans) != 1 || !page.Plans[0].Tuned || !strings.HasSuffix(page.Plans[0].Plan, "/tuned") {
		t.Errorf("registry missing tuned identity: %+v", page.Plans)
	}
}

// TestTunerSkippedOnExplicitLevels pins that a caller who pinned the
// recursion depth is never second-guessed: the tuner is not consulted
// and the plan carries no marker.
func TestTunerSkippedOnExplicitLevels(t *testing.T) {
	ours := algos.Ours()
	ft := &fakeTuner{choice: core.TunedChoice{Levels: 0}, ok: true}
	mu := core.New(ours, core.Options{Levels: 1, Workers: 1, Tuner: ft})
	p := mu.Plan(64, 64, 64)
	if ft.calls != 0 {
		t.Errorf("tuner consulted %d times despite explicit levels", ft.calls)
	}
	if p.Tuned() || p.Levels() != 1 || strings.Contains(p.Desc(), "tuned") {
		t.Errorf("explicit-levels plan polluted by tuner: %q", p.Desc())
	}
}

// TestTunerNoOpinionFallsBack pins the ok=false path: the default
// configuration compiles, unmarked.
func TestTunerNoOpinionFallsBack(t *testing.T) {
	ours := algos.Ours()
	ft := &fakeTuner{ok: false}
	mu := core.New(ours, core.Options{Levels: core.AutoLevels, Workers: 1, Tuner: ft})
	p := mu.Plan(64, 64, 64)
	if ft.calls != 1 {
		t.Errorf("tuner consulted %d times, want 1", ft.calls)
	}
	if p.Tuned() || p.Alg() != ours || strings.Contains(p.Desc(), "tuned") {
		t.Errorf("no-opinion fallback produced %q (tuned=%t)", p.Desc(), p.Tuned())
	}
}

// TestTunerPartialChoice pins the keep-default semantics of zero
// fields: nil Alg keeps the algorithm, negative Levels keeps automatic
// resolution, zero Workers keeps the configured count — but the plan is
// still marked tuned (the tuner did decide, it decided "default-like").
func TestTunerPartialChoice(t *testing.T) {
	ours := algos.Ours()
	ft := &fakeTuner{choice: core.TunedChoice{Alg: nil, Levels: -1}, ok: true}
	mu := core.New(ours, core.Options{Levels: core.AutoLevels, Workers: 1, Tuner: ft})
	// Automatic depth at 1024³ is 1, so keeping it is distinguishable
	// from forcing 0. Compiling the plan multiplies nothing.
	const n = 1024
	p := mu.Plan(n, n, n)
	if p.Alg() != ours {
		t.Errorf("nil Alg did not keep the default algorithm")
	}
	if want := mu.Levels(n, n, n); want < 1 || p.Levels() != want {
		t.Errorf("negative Levels resolved to %d, want automatic %d (≥ 1)", p.Levels(), want)
	}
	if !p.Tuned() {
		t.Error("partial choice lost the tuned marker")
	}
}
