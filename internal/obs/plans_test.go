package obs

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testPlanID(alg string, n int) PlanID {
	return PlanID{Alg: alg, M: n, K: n, N: n, Levels: 1, Schedule: "seq", Kernel: "128x256x512"}
}

func TestPlanRegistryClaimRecord(t *testing.T) {
	r := NewPlanRegistry(4)
	id := testPlanID("ours", 256)
	s := r.Claim(id, 2*256*256*256, 30_000_000)
	if s == nil {
		t.Fatal("Claim returned nil")
	}
	if again := r.Claim(id, 0, 0); again != s {
		t.Error("same identity did not share the slot")
	}
	s.MulDone(MulInfo{}, 10*time.Millisecond)
	s.MulDone(MulInfo{}, 20*time.Millisecond)
	s.ArenaRelease(ArenaUsage{AllocBytes: 1 << 20})
	s.ArenaRelease(ArenaUsage{AllocBytes: 1 << 19}) // lower: must not regress the mark
	s.ErrorSample(1e-15, 1e-13)

	page := r.Page()
	if len(page.Plans) != 1 {
		t.Fatalf("Page has %d plans, want 1", len(page.Plans))
	}
	ps := page.Plans[0]
	if ps.Plan != "ours/L1/seq" || ps.Shape != "256x256x256" {
		t.Errorf("identity = %q %q", ps.Plan, ps.Shape)
	}
	if ps.Execs != 2 || !ps.Live {
		t.Errorf("execs=%d live=%t, want 2 live", ps.Execs, ps.Live)
	}
	if ps.ArenaHighWaterBytes != 1<<20 {
		t.Errorf("arena HW = %d, want %d", ps.ArenaHighWaterBytes, 1<<20)
	}
	if ps.ErrorSamples != 1 || ps.ErrorRatio.Count != 1 {
		t.Errorf("error samples = %d/%d, want 1/1", ps.ErrorSamples, ps.ErrorRatio.Count)
	}
	// 2·n³·execs flops over 30ms of wall time ≈ 2.24 GFLOPS.
	if ps.ClassicalGFLOPS < 2 || ps.ClassicalGFLOPS > 2.5 {
		t.Errorf("classical GFLOPS = %g, want ≈2.24", ps.ClassicalGFLOPS)
	}
	if ps.EffectiveGFLOPS >= ps.ClassicalGFLOPS {
		t.Errorf("effective %g should be below classical %g for a fast algorithm",
			ps.EffectiveGFLOPS, ps.ClassicalGFLOPS)
	}
}

func TestPlanRegistryEvictReclaimOverflow(t *testing.T) {
	r := NewPlanRegistry(2)
	a := r.Claim(testPlanID("ours", 64), 1, 1)
	r.Claim(testPlanID("ours", 128), 1, 1)
	a.MulDone(MulInfo{}, time.Millisecond)

	// Full registry, every slot claimed: a new identity overflows.
	o := r.Claim(testPlanID("strassen", 64), 1, 1)
	o.MulDone(MulInfo{}, time.Millisecond)
	if r.Overflowed() != 1 {
		t.Fatalf("Overflowed = %d, want 1", r.Overflowed())
	}
	page := r.Page()
	if page.Other == nil || page.Other.Execs != 1 || page.Other.Plan != "other" {
		t.Fatalf("overflow slot missing from page: %+v", page.Other)
	}

	// Releasing a claim keeps history (slot still listed, not live) until
	// a new identity reclaims the slot.
	r.Release(a)
	page = r.Page()
	var evicted *PlanStats
	for i := range page.Plans {
		if page.Plans[i].Shape == "64x64x64" {
			evicted = &page.Plans[i]
		}
	}
	if evicted == nil || evicted.Live || evicted.Execs != 1 {
		t.Fatalf("released slot lost its history: %+v", evicted)
	}

	// Re-claiming the same identity resumes the slot with history...
	a2 := r.Claim(testPlanID("ours", 64), 1, 1)
	if a2 != a {
		t.Fatal("same-identity reclaim did not resume the slot")
	}
	r.Release(a2)

	// ...while a new identity resets it.
	c := r.Claim(testPlanID("winograd", 32), 1, 1)
	if c != a {
		t.Fatal("new identity did not reclaim the released slot")
	}
	if n := c.execs.Load(); n != 0 {
		t.Errorf("reclaimed slot kept %d execs, want 0", n)
	}
	// Releasing nil and the overflow slot must be no-ops.
	r.Release(nil)
	r.Release(o)

	var nilReg *PlanRegistry
	if s := nilReg.Claim(testPlanID("x", 8), 1, 1); s != nil {
		t.Error("nil registry claimed a slot")
	}
	if p := nilReg.Page(); len(p.Plans) != 0 {
		t.Error("nil registry page not empty")
	}
	var nilSlot *PlanSlot
	nilSlot.MulDone(MulInfo{}, time.Second)
	nilSlot.ArenaRelease(ArenaUsage{AllocBytes: 1})
	nilSlot.ErrorSample(1, 1)
	nilSlot.ExemplarTrace(1, 2, time.Second)
}

func TestPlanSlotExemplars(t *testing.T) {
	r := NewPlanRegistry(2)
	s := r.Claim(testPlanID("ours", 64), 1, 1)
	s.ExemplarTrace(0x0123456789abcdef, 0xfedcba9876543210, 5*time.Millisecond)
	s.ExemplarTrace(0x1111111111111111, 0x2222222222222222, time.Millisecond)
	ps := r.Page().Plans[0]
	if ps.SlowestTrace != "0123456789abcdeffedcba9876543210" {
		t.Errorf("slowest = %q, want the 5ms exemplar", ps.SlowestTrace)
	}
	if ps.SlowestTraceNs != int64(5*time.Millisecond) {
		t.Errorf("slowest ns = %d", ps.SlowestTraceNs)
	}
	if ps.LastTrace != "11111111111111112222222222222222" {
		t.Errorf("last = %q, want the most recent exemplar", ps.LastTrace)
	}
	// A zero trace ID is untraced and must be ignored.
	s.ExemplarTrace(0, 0, time.Hour)
	if got := r.Page().Plans[0].SlowestTrace; got != "0123456789abcdeffedcba9876543210" {
		t.Errorf("zero-ID exemplar displaced the slowest: %q", got)
	}
}

// goldenRegistry builds the deterministic registry behind the pinned
// /debug/plans JSON: fixed identities, durations, samples, exemplars,
// and one overflow.
func goldenRegistry() *PlanRegistry {
	r := NewPlanRegistry(2)
	a := r.Claim(PlanID{Alg: "ours", M: 256, K: 256, N: 256, Levels: 2, Schedule: "seq", Kernel: "128x256x512"},
		2*256*256*256, 110_000_000)
	a.MulDone(MulInfo{}, 8*time.Millisecond)
	a.MulDone(MulInfo{}, 12*time.Millisecond)
	a.ArenaRelease(ArenaUsage{AllocBytes: 3 << 20})
	a.ErrorSample(2e-16, 1e-13)
	a.ExemplarTrace(0x0123456789abcdef, 0xfedcba9876543210, 12*time.Millisecond)

	// A second schedule segment: pins its rendering in the JSON, HTML,
	// and metric-label surfaces.
	b := r.Claim(PlanID{Alg: "strassen", M: 128, K: 128, N: 128, Levels: 1, Schedule: "task", Kernel: "128x256x512"},
		2*128*128*128, 4_000_000)
	b.MulDone(MulInfo{}, 2*time.Millisecond)

	o := r.Claim(PlanID{Alg: "winograd", M: 64, K: 64, N: 64, Levels: 0, Schedule: "seq", Kernel: "128x256x512"}, 1, 1)
	o.MulDone(MulInfo{}, time.Millisecond)
	return r
}

func TestPlansHandlerGoldenJSON(t *testing.T) {
	h := goldenRegistry().Handler()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/plans?format=json", nil))
	if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("Content-Type = %q", ct)
	}
	got := rr.Body.Bytes()

	golden := filepath.Join("testdata", "plans.golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("/debug/plans JSON drifted from %s (regenerate with -update):\n%s", golden, got)
	}
}

func TestPlansHandlerHTML(t *testing.T) {
	h := goldenRegistry().Handler()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/plans", nil))
	body := rr.Body.String()
	for _, want := range []string{
		"ours/L2/seq", "strassen/L1/task", "256x256x256",
		"/debug/requests?id=0123456789abcdeffedcba9876543210",
		">other<", // overflow row
	} {
		if !strings.Contains(body, want) {
			t.Errorf("HTML missing %q", want)
		}
	}
}

// TestWritePlanMetrics pins the per-plan Prometheus families the way
// TestMetricsGolden pins the engine's: goldenRegistry's counters,
// gauges and labelled histogram series must render byte-identically.
func TestWritePlanMetrics(t *testing.T) {
	var buf bytes.Buffer
	goldenRegistry().WritePlanMetrics(&buf)
	got := buf.Bytes()
	golden := filepath.Join("testdata", "plan_metrics.golden.txt")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("per-plan metrics drifted from %s (regenerate with -update):\n%s", golden, got)
	}
	// A nil registry writes nothing.
	var empty bytes.Buffer
	(*PlanRegistry)(nil).WritePlanMetrics(&empty)
	if empty.Len() != 0 {
		t.Errorf("nil registry wrote %d bytes", empty.Len())
	}
}
