package core_test

// Tests for per-plan attribution (Options.Plans): plan compilation
// claims a registry slot, executions record into it atomically,
// LRU eviction releases the claim while keeping the slot's history,
// error samples land on the slot even without a sampler-capable
// recorder, and traced executions attach exemplar trace IDs.

import (
	"context"
	"testing"

	"abmm/internal/algos"
	"abmm/internal/core"
	"abmm/internal/matrix"
	"abmm/internal/obs"
	"abmm/internal/reqtrace"
)

func TestPlanRegistryAttribution(t *testing.T) {
	reg := obs.NewPlanRegistry(0)
	mu := core.New(algos.Ours(), core.Options{Levels: 1, Workers: 1, Plans: reg})
	const n = 32
	a, b, dst := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	a.FillUniform(matrix.Rand(1), -1, 1)
	b.FillUniform(matrix.Rand(2), -1, 1)
	for i := 0; i < 3; i++ {
		mu.MultiplyInto(dst, a, b)
	}

	page := reg.Page()
	if len(page.Plans) != 1 {
		t.Fatalf("registry holds %d plans, want 1", len(page.Plans))
	}
	ps := page.Plans[0]
	if ps.Plan != "ours/L1/seq" || ps.Shape != "32x32x32" {
		t.Errorf("plan identity = %q %q, want ours/L1/seq 32x32x32", ps.Plan, ps.Shape)
	}
	if ps.Execs != 3 || ps.Latency.Count != 3 {
		t.Errorf("execs/latency = %d/%d, want 3/3", ps.Execs, ps.Latency.Count)
	}
	if !ps.Live {
		t.Error("cached plan's slot not live")
	}
	if ps.ArenaHighWaterBytes <= 0 {
		t.Errorf("arena high water = %d, want > 0", ps.ArenaHighWaterBytes)
	}
}

func TestPlanRegistryEvictionReleases(t *testing.T) {
	reg := obs.NewPlanRegistry(0)
	mu := core.New(algos.Ours(), core.Options{Levels: 1, Workers: 1, Plans: reg})
	run := func(n int) {
		a, b := matrix.New(n, n), matrix.New(n, n)
		a.FillUniform(matrix.Rand(uint64(n)), -1, 1)
		b.FillUniform(matrix.Rand(uint64(n)+1), -1, 1)
		mu.MultiplyInto(matrix.New(n, n), a, b)
	}
	run(32)
	// 32 more shapes, 33 in all, overflow the plan cache by one: the
	// least recently used 32³ plan is evicted, releasing its claim.
	for n := 33; n <= 32+core.DefaultPlanCache; n++ {
		run(n)
	}

	live := map[string]bool{}
	for _, ps := range reg.Page().Plans {
		live[ps.Shape] = ps.Live
	}
	if liveNow, ok := live["32x32x32"]; !ok || liveNow {
		t.Errorf("evicted 32^3 plan: listed=%t live=%t, want listed and not live", ok, liveNow)
	}
	if liveNow, ok := live["48x48x48"]; !ok || !liveNow {
		t.Errorf("cached 48^3 plan: listed=%t live=%t, want listed and live", ok, liveNow)
	}

	// Recompiling the evicted shape resumes the same slot's history.
	run(32)
	for _, ps := range reg.Page().Plans {
		if ps.Shape == "32x32x32" {
			if !ps.Live || ps.Execs != 2 {
				t.Errorf("resumed 32^3 slot: live=%t execs=%d, want live with 2 execs", ps.Live, ps.Execs)
			}
		}
	}
}

func TestPlanRegistryErrorSampleWithoutSampler(t *testing.T) {
	// No Recorder at all: with Plans set, ErrorSampleEvery still samples
	// into the slot (the registry is the sampling sink).
	reg := obs.NewPlanRegistry(0)
	mu := core.New(algos.Ours(), core.Options{
		Levels: 1, Workers: 1, Plans: reg, ErrorSampleEvery: 1,
	})
	const n = 32
	a, b := matrix.New(n, n), matrix.New(n, n)
	a.FillUniform(matrix.Rand(7), -1, 1)
	b.FillUniform(matrix.Rand(8), -1, 1)
	mu.MultiplyInto(matrix.New(n, n), a, b)

	ps := reg.Page().Plans[0]
	if ps.ErrorSamples != 1 || ps.ErrorRatio.Count != 1 {
		t.Fatalf("slot error samples = %d (%d ratios), want 1", ps.ErrorSamples, ps.ErrorRatio.Count)
	}
	// Benign inputs: the measured/bound ratio sits inside the bound.
	if max := ps.ErrorRatio.Max; max <= 0 || max >= 1 {
		t.Errorf("measured/bound ratio %g, want in (0, 1)", max)
	}
}

func TestPlanRegistryExemplarFromTracedCtx(t *testing.T) {
	reg := obs.NewPlanRegistry(0)
	mu := core.New(algos.Ours(), core.Options{Levels: 1, Workers: 1, Plans: reg})
	const n = 32
	a, b := matrix.New(n, n), matrix.New(n, n)
	a.FillUniform(matrix.Rand(9), -1, 1)
	b.FillUniform(matrix.Rand(10), -1, 1)

	tr := reqtrace.New()
	ctx := reqtrace.NewContext(context.Background(), tr)
	if err := mu.MultiplyIntoCtx(ctx, matrix.New(n, n), a, b); err != nil {
		t.Fatal(err)
	}
	ps := reg.Page().Plans[0]
	if ps.LastTrace != tr.ID().String() {
		t.Errorf("exemplar = %q, want the request's trace ID %q", ps.LastTrace, tr.ID().String())
	}
	if ps.SlowestTrace != tr.ID().String() || ps.SlowestTraceNs <= 0 {
		t.Errorf("slowest exemplar = %q (%dns)", ps.SlowestTrace, ps.SlowestTraceNs)
	}

	// Untraced contexts leave no exemplar behind.
	if err := mu.MultiplyIntoCtx(context.Background(), matrix.New(n, n), a, b); err != nil {
		t.Fatal(err)
	}
	if got := reg.Page().Plans[0].LastTrace; got != tr.ID().String() {
		t.Errorf("untraced execution replaced the exemplar: %q", got)
	}
}
