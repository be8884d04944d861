package reqtrace

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"abmm/internal/obs"
)

// fakeClock advances a fixed step per read, so span timestamps are
// deterministic without sleeping.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	return c.t
}

// Advance moves the clock without the per-read step.
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

var testEpoch = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

// newTestTrace builds a deterministic trace: fixed ID and start, clock
// under test control.
func newTestTrace(lo uint64, c *fakeClock) *Trace {
	t := newTrace(ID{Hi: 0xabcd, Lo: lo}, 0, false)
	t.span = 0x1111_2222_3333_4444
	t.start = testEpoch
	if c != nil {
		t.now = c.Now
	}
	return t
}

func TestIDRoundTrip(t *testing.T) {
	id := ID{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210}
	s := id.String()
	if s != "0123456789abcdeffedcba9876543210" {
		t.Fatalf("String() = %q", s)
	}
	got, err := ParseID(s)
	if err != nil || got != id {
		t.Fatalf("ParseID(%q) = %v, %v", s, got, err)
	}
	for _, bad := range []string{"", "00", strings.Repeat("0", 32), strings.Repeat("g", 32), strings.Repeat("0", 31) + "Z"} {
		if _, err := ParseID(bad); err == nil {
			t.Errorf("ParseID(%q) accepted", bad)
		}
	}
}

func TestNewIDNonZero(t *testing.T) {
	for i := 0; i < 100; i++ {
		if NewID().IsZero() {
			t.Fatal("NewID returned zero ID")
		}
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	id := ID{Hi: 0x4bf92f3577b34da6, Lo: 0xa3ce929d0e0e4736}
	const span = 0x00f067aa0ba902b7
	h := FormatTraceparent(id, span)
	want := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if h != want {
		t.Fatalf("FormatTraceparent = %q, want %q", h, want)
	}
	gid, gspan, ok := ParseTraceparent(h)
	if !ok || gid != id || gspan != span {
		t.Fatalf("ParseTraceparent(%q) = %v %x %v", h, gid, gspan, ok)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	cases := map[string]string{
		"empty":           "",
		"short":           valid[:54],
		"bad dash 1":      strings.Replace(valid, "-", "_", 1),
		"zero trace id":   "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"zero parent":     "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"version ff":      "ff" + valid[2:],
		"hex version":     "zz" + valid[2:],
		"v00 with extra":  valid + "-extra",
		"bad extra sep":   valid + "xtra",
		"bad flags":       valid[:53] + "zz",
		"uppercase hexid": "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
	}
	for name, s := range cases {
		if _, _, ok := ParseTraceparent(s); ok {
			t.Errorf("%s: ParseTraceparent(%q) accepted", name, s)
		}
	}
	// Future versions may carry trailing fields after the flags.
	if _, _, ok := ParseTraceparent("cc" + valid[2:] + "-future-fields"); !ok {
		t.Error("future version with trailing fields rejected")
	}
}

func TestUppercaseParseIDRejected(t *testing.T) {
	// The W3C trace-context grammar is lowercase-only.
	if _, err := ParseID(strings.ToUpper("0123456789abcdeffedcba9876543210")); err == nil {
		t.Fatal("uppercase hex accepted by ParseID")
	}
}

func TestNewRemote(t *testing.T) {
	id := ID{Hi: 1, Lo: 2}
	tr := NewRemote(id, 77)
	if tr.ID() != id || !tr.Remote() || tr.ParentSpan() != 77 {
		t.Fatalf("NewRemote: id=%v remote=%v parent=%d", tr.ID(), tr.Remote(), tr.ParentSpan())
	}
	if tr.span == 0 {
		t.Fatal("NewRemote did not mint a local span id")
	}
	if fb := NewRemote(ID{}, 5); fb.ID().IsZero() || fb.Remote() {
		t.Fatalf("NewRemote(zero) should fall back to a fresh local trace, got id=%v remote=%v", fb.ID(), fb.Remote())
	}
	tp := tr.Traceparent()
	pid, pspan, ok := ParseTraceparent(tp)
	if !ok || pid != id || pspan != tr.span {
		t.Fatalf("Traceparent %q does not round-trip", tp)
	}
}

func TestSpanTree(t *testing.T) {
	c := &fakeClock{t: testEpoch, step: time.Millisecond}
	tr := newTestTrace(1, c)

	root := tr.StartSpan("decode")
	child := root.StartChild("inner")
	child.End()
	root.End()
	tr.ObserveSpan("admission", testEpoch.Add(10*time.Millisecond), 5*time.Millisecond)

	tr.Finish(OutcomeOK, "")
	snap := tr.Snapshot()
	if len(snap.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(snap.Spans))
	}
	if snap.Spans[0].Name != "decode" || snap.Spans[0].Parent != -1 {
		t.Errorf("span 0 = %+v", snap.Spans[0])
	}
	if snap.Spans[1].Name != "inner" || snap.Spans[1].Parent != 0 {
		t.Errorf("span 1 = %+v", snap.Spans[1])
	}
	adm := snap.Spans[2]
	if adm.Name != "admission" || adm.StartNs != 10e6 || adm.EndNs != 15e6 {
		t.Errorf("observed span = %+v", adm)
	}
	if snap.Spans[0].EndNs <= snap.Spans[0].StartNs {
		t.Errorf("decode span not closed: %+v", snap.Spans[0])
	}
}

func TestRecorderPhases(t *testing.T) {
	c := &fakeClock{t: testEpoch, step: time.Millisecond}
	tr := newTestTrace(2, c)

	exec := tr.StartSpan("exec")
	exec.AdoptPhases()
	var rec obs.Recorder = tr
	rec.PhaseDone(obs.PhasePad, 2*time.Millisecond)
	rec.PhaseDone(obs.PhasePack, time.Millisecond)   // aggregated, not a span
	rec.PhaseDone(obs.PhaseKernel, time.Millisecond) // aggregated, not a span
	rec.PhaseDone(obs.PhaseBilinear, 3*time.Millisecond)
	rec.MulDone(obs.MulInfo{M: 64, K: 64, N: 64, Levels: 2}, 9*time.Millisecond)
	rec.ArenaRelease(obs.ArenaUsage{RequestedBytes: 100, ReusedBytes: 80})
	exec.End()
	// After End the anchor resets: phases parent at the root again.
	rec.PhaseDone(obs.PhaseCrop, time.Millisecond)

	tr.Finish(OutcomeOK, "")
	snap := tr.Snapshot()
	if len(snap.Spans) != 4 { // exec, pad, bilinear, crop
		t.Fatalf("got %d spans %+v, want 4", len(snap.Spans), snap.Spans)
	}
	if snap.Spans[1].Name != "pad" || snap.Spans[1].Parent != 0 {
		t.Errorf("pad span = %+v, want parent 0", snap.Spans[1])
	}
	if snap.Spans[2].Name != "bilinear" || snap.Spans[2].Parent != 0 {
		t.Errorf("bilinear span = %+v, want parent 0", snap.Spans[2])
	}
	if snap.Spans[3].Name != "crop" || snap.Spans[3].Parent != -1 {
		t.Errorf("crop span = %+v, want root parent", snap.Spans[3])
	}
	if d := snap.Spans[1].EndNs - snap.Spans[1].StartNs; d != 2e6 {
		t.Errorf("pad duration = %d, want 2ms", d)
	}
	eng := snap.Engine
	if eng.PackCalls != 1 || eng.PackNs != 1e6 || eng.KernelCalls != 1 || eng.KernelNs != 1e6 {
		t.Errorf("pack/kernel aggregates = %+v", eng)
	}
	if eng.ArenaRequestedBytes != 100 || eng.ArenaReusedBytes != 80 {
		t.Errorf("arena aggregates = %+v", eng)
	}
	if snap.Shape != "64x64x64" || snap.Levels != 2 {
		t.Errorf("mul info: shape=%q levels=%d", snap.Shape, snap.Levels)
	}
}

func TestSpanOverflowCounted(t *testing.T) {
	tr := newTestTrace(3, &fakeClock{t: testEpoch, step: time.Microsecond})
	for i := 0; i < MaxSpans+10; i++ {
		s := tr.StartSpan("s")
		s.End() // dropped spans end as no-ops
	}
	tr.Finish(OutcomeOK, "")
	snap := tr.Snapshot()
	if len(snap.Spans) != MaxSpans {
		t.Fatalf("stored %d spans, want %d", len(snap.Spans), MaxSpans)
	}
	if snap.Dropped != 10 {
		t.Fatalf("dropped = %d, want 10", snap.Dropped)
	}
}

func TestEventOverflowCounted(t *testing.T) {
	tr := newTestTrace(4, &fakeClock{t: testEpoch, step: time.Microsecond})
	for i := 0; i < MaxEvents+3; i++ {
		tr.Eventf("event %d", i)
	}
	tr.Finish(OutcomeOK, "")
	snap := tr.Snapshot()
	if len(snap.Events) != MaxEvents {
		t.Fatalf("stored %d events, want %d", len(snap.Events), MaxEvents)
	}
	if tr.droppedEvents.Load() != 3 {
		t.Fatalf("dropped events = %d, want 3", tr.droppedEvents.Load())
	}
}

func TestFinishFirstWins(t *testing.T) {
	tr := newTestTrace(5, &fakeClock{t: testEpoch, step: time.Millisecond})
	if !tr.Finish(OutcomeError, "boom") {
		t.Fatal("first Finish returned false")
	}
	if tr.Finish(OutcomeOK, "") {
		t.Fatal("second Finish returned true")
	}
	if tr.Outcome() != OutcomeError || tr.Err() != "boom" {
		t.Fatalf("outcome=%v err=%q after racing Finish", tr.Outcome(), tr.Err())
	}
	if !tr.Finished() || tr.Duration() <= 0 {
		t.Fatalf("finished=%v duration=%v", tr.Finished(), tr.Duration())
	}
}

func TestNilTraceIsNoop(t *testing.T) {
	var tr *Trace
	// Every method must be callable on nil.
	_ = tr.ID()
	_ = tr.Remote()
	_ = tr.ParentSpan()
	_ = tr.Traceparent()
	_ = tr.Start()
	s := tr.StartSpan("x")
	s2 := s.StartChild("y")
	s2.End()
	s.AdoptPhases()
	s.End()
	_ = tr.ObserveSpan("z", testEpoch, time.Second)
	_ = s.Observe("w", testEpoch, time.Second)
	tr.Eventf("e %d", 1)
	tr.PhaseDone(obs.PhasePad, time.Second)
	tr.MulDone(obs.MulInfo{}, time.Second)
	tr.ArenaRelease(obs.ArenaUsage{})
	if tr.Finish(OutcomeOK, "") {
		t.Fatal("nil Finish returned true")
	}
	_ = tr.Finished()
	_ = tr.Duration()
	_ = tr.Outcome()
	_ = tr.Err()
	_ = tr.Snapshot()
}

func TestContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if FromContext(ctx) != nil {
		t.Fatal("empty context yielded a trace")
	}
	if NewContext(ctx, nil) != ctx {
		t.Fatal("NewContext(nil) should return ctx unchanged")
	}
	tr := New()
	if got := FromContext(NewContext(ctx, tr)); got != tr {
		t.Fatalf("FromContext = %p, want %p", got, tr)
	}
}

// TestUntracedRecorderZeroAlloc pins the cost of the disabled path: a
// context lookup plus nil-receiver recorder calls allocate nothing.
func TestUntracedRecorderZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		tr := FromContext(ctx)
		tr.PhaseDone(obs.PhaseBilinear, time.Millisecond)
		tr.ArenaRelease(obs.ArenaUsage{})
		s := tr.StartSpan("x")
		s.End()
	})
	if allocs != 0 {
		t.Fatalf("untraced path allocates %v per op, want 0", allocs)
	}
}

// TestTracedAnnotationZeroAlloc pins the hot-path claim: annotating a
// live trace (spans, phases, aggregates) does not allocate either —
// only Eventf and Snapshot may.
func TestTracedAnnotationZeroAlloc(t *testing.T) {
	tr := New()
	allocs := testing.AllocsPerRun(100, func() {
		tr.nspans.Store(0) // reuse slots so the cap is never hit
		s := tr.StartSpan("exec")
		s.AdoptPhases()
		tr.PhaseDone(obs.PhasePad, time.Millisecond)
		tr.PhaseDone(obs.PhasePack, time.Microsecond)
		tr.ArenaRelease(obs.ArenaUsage{RequestedBytes: 1, ReusedBytes: 1})
		s.End()
	})
	if allocs != 0 {
		t.Fatalf("traced annotation allocates %v per op, want 0", allocs)
	}
}

// TestConcurrentAnnotation exercises the lock-free paths under the race
// detector (`make race` covers this package): many goroutines claiming
// spans and bumping aggregates on one trace.
func TestConcurrentAnnotation(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.PhaseDone(obs.PhasePack, time.Microsecond)
				tr.PhaseDone(obs.PhaseKernel, time.Microsecond)
				s := tr.StartSpan("worker")
				s.End()
			}
		}()
	}
	wg.Wait()
	tr.Finish(OutcomeOK, "")
	snap := tr.Snapshot()
	if snap.Engine.PackCalls != 1600 || snap.Engine.KernelCalls != 1600 {
		t.Fatalf("aggregates lost updates: %+v", snap.Engine)
	}
	if got := int64(len(snap.Spans)) + snap.Dropped; got != 1600 {
		t.Fatalf("spans stored+dropped = %d, want 1600", got)
	}
}

func TestStoreBucketing(t *testing.T) {
	s := NewStore(4, 100*time.Millisecond)

	mk := func(lo uint64, d time.Duration, o Outcome, msg string) *Trace {
		tr := newTestTrace(lo, nil)
		tr.now = func() time.Time { return tr.start.Add(d) }
		tr.Finish(o, msg)
		s.Add(tr)
		return tr
	}

	fast := mk(1, 10*time.Millisecond, OutcomeOK, "")
	slow := mk(2, 500*time.Millisecond, OutcomeOK, "")
	errd := mk(3, 20*time.Millisecond, OutcomeError, "bad frame")
	canc := mk(4, 30*time.Millisecond, OutcomeCanceled, "context canceled")

	if got := s.Traces(BucketRecent); len(got) != 4 || got[0] != canc || got[3] != fast {
		t.Fatalf("recent = %d traces, newest-first order wrong", len(got))
	}
	if got := s.Traces(BucketSlow); len(got) != 1 || got[0] != slow {
		t.Fatalf("slow bucket = %v", got)
	}
	if got := s.Traces(BucketErrored); len(got) != 1 || got[0] != errd {
		t.Fatalf("errored bucket = %v", got)
	}
	if got := s.Traces(BucketCanceled); len(got) != 1 || got[0] != canc {
		t.Fatalf("canceled bucket = %v", got)
	}
	if s.Lookup(errd.ID()) != errd {
		t.Fatal("Lookup by ID failed")
	}
	if s.Lookup(ID{Hi: 9, Lo: 9}) != nil {
		t.Fatal("Lookup of unknown ID returned a trace")
	}
}

func TestStoreRingOverwrite(t *testing.T) {
	s := NewStore(2, time.Hour)
	var last *Trace
	for i := uint64(1); i <= 5; i++ {
		tr := newTestTrace(i, nil)
		tr.Finish(OutcomeOK, "")
		s.Add(tr)
		last = tr
	}
	got := s.Traces(BucketRecent)
	if len(got) != 2 || got[0] != last {
		t.Fatalf("ring kept %d traces, newest = %v", len(got), got[0].ID())
	}
	if s.Total(BucketRecent) != 5 {
		t.Fatalf("lifetime total = %d, want 5", s.Total(BucketRecent))
	}
}

func TestStoreIgnoresUnfinished(t *testing.T) {
	s := NewStore(2, time.Hour)
	s.Add(nil)
	s.Add(New()) // not finished
	if len(s.Traces(BucketRecent)) != 0 {
		t.Fatal("store accepted an unsealed trace")
	}
	var nilStore *Store
	nilStore.Add(New())
	if nilStore.Traces(BucketRecent) != nil || nilStore.Lookup(ID{Hi: 1}) != nil || nilStore.Total(BucketRecent) != 0 {
		t.Fatal("nil store not a no-op")
	}
}

func TestStoreDefaults(t *testing.T) {
	s := NewStore(0, 0)
	if s.SlowThreshold() != DefaultSlowThreshold {
		t.Fatalf("slow threshold = %v", s.SlowThreshold())
	}
	if len(s.rings[BucketRecent].buf) != DefaultRingSize {
		t.Fatalf("ring size = %d", len(s.rings[BucketRecent].buf))
	}
}

func TestOutcomeStrings(t *testing.T) {
	cases := map[Outcome]string{OutcomeOK: "ok", OutcomeError: "error", OutcomeCanceled: "canceled", Outcome(9): "unknown"}
	for o, want := range cases {
		if o.String() != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", o, o.String(), want)
		}
	}
	if Bucket(9).String() != "unknown" {
		t.Errorf("Bucket(9).String() = %q", Bucket(9).String())
	}
}
