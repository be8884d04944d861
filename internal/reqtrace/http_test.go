package reqtrace

import (
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"abmm/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenStore builds a Store with fully deterministic contents: fixed
// IDs, fixed start times, a scripted clock.
func goldenStore() *Store {
	s := NewStore(4, 100*time.Millisecond)

	// A fast OK trace with a full server-style span tree.
	c := &fakeClock{t: testEpoch, step: time.Millisecond}
	ok := newTestTrace(0x01, c)
	dec := ok.StartSpan("decode")
	dec.End()
	ok.ObserveSpan("admission", testEpoch.Add(2500*time.Microsecond), 500*time.Microsecond)
	co := ok.StartSpan("coalesce")
	pr := co.StartChild("plan-resolve")
	pr.End()
	co.End()
	exec := ok.StartSpan("exec")
	exec.AdoptPhases()
	ok.PhaseDone(obs.PhasePad, time.Millisecond)
	ok.PhaseDone(obs.PhaseForward, time.Millisecond)
	ok.PhaseDone(obs.PhasePack, 300*time.Microsecond)
	ok.PhaseDone(obs.PhaseKernel, 600*time.Microsecond)
	ok.PhaseDone(obs.PhaseBilinear, 2*time.Millisecond)
	ok.PhaseDone(obs.PhaseInverse, time.Millisecond)
	ok.PhaseDone(obs.PhaseCrop, time.Millisecond)
	ok.MulDone(obs.MulInfo{M: 256, K: 256, N: 256, Levels: 2}, 12*time.Millisecond)
	ok.ArenaRelease(obs.ArenaUsage{RequestedBytes: 4096, ReusedBytes: 4096})
	exec.End()
	enc := ok.StartSpan("encode")
	enc.End()
	ok.Eventf("alg=%s levels=%d", "strassen", 2)
	ok.Finish(OutcomeOK, "")
	s.Add(ok)

	// A slow remote-originated trace (client traceparent).
	slow := newTrace(ID{Hi: 0xabcd, Lo: 0x02}, 0x0102030405060708, true)
	slow.span = 0x1111_2222_3333_4444
	slow.start = testEpoch.Add(time.Second)
	slow.now = func() time.Time { return slow.start.Add(400 * time.Millisecond) }
	q := slow.StartSpan("admission")
	q.StartChild("queue").End()
	q.End()
	slow.Finish(OutcomeOK, "")
	s.Add(slow)

	// An errored trace.
	bad := newTestTrace(0x03, nil)
	bad.start = testEpoch.Add(2 * time.Second)
	bad.now = func() time.Time { return bad.start.Add(42 * time.Microsecond) }
	bad.Eventf("reject: levels out of range")
	bad.Finish(OutcomeError, "levels out of range")
	s.Add(bad)

	// A canceled trace.
	canc := newTestTrace(0x04, nil)
	canc.start = testEpoch.Add(3 * time.Second)
	canc.now = func() time.Time { return canc.start.Add(90 * time.Millisecond) }
	canc.Finish(OutcomeCanceled, "context canceled")
	s.Add(canc)

	return s
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("output differs from %s (run with -update after intentional changes)\ngot:\n%s", path, got)
	}
}

func TestHandlerJSONGolden(t *testing.T) {
	h := goldenStore().Handler()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/requests?format=json", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	checkGolden(t, "requests.golden.json", rr.Body.Bytes())
}

func TestHandlerHTML(t *testing.T) {
	h := goldenStore().Handler()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/requests", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "text/html; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	body := rr.Body.String()
	for _, want := range []string{
		"abmm request traces",
		"000000000000abcd0000000000000001", // the OK trace's ID
		"plan-resolve",
		"bilinear",
		"levels out of range",
		"remote",
		"arena    4096 B requested, 4096 B reused",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("HTML missing %q", want)
		}
	}
	if strings.Contains(body, "no traces recorded") {
		t.Error("populated store rendered the empty-ring message")
	}
}

func TestHandlerEmptyRings(t *testing.T) {
	h := NewStore(4, time.Second).Handler()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/requests", nil))
	if !strings.Contains(rr.Body.String(), "no traces recorded") {
		t.Error("empty store should render the empty-ring message")
	}
	// JSON of an empty store still carries all four buckets.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/requests?format=json", nil))
	body := rr.Body.String()
	for _, b := range []string{"recent", "slow", "errored", "canceled"} {
		if !strings.Contains(body, `"name": "`+b+`"`) {
			t.Errorf("empty JSON missing bucket %q", b)
		}
	}
}

func TestHandlerAcceptNegotiation(t *testing.T) {
	h := goldenStore().Handler()

	req := httptest.NewRequest("GET", "/debug/requests", nil)
	req.Header.Set("Accept", "application/json")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if ct := rr.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("Accept: application/json got Content-Type %q", ct)
	}

	// A browser Accept (lists text/html) stays HTML even if it also
	// mentions application/json; ?format=html overrides Accept.
	req = httptest.NewRequest("GET", "/debug/requests?format=html", nil)
	req.Header.Set("Accept", "application/json")
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if ct := rr.Header().Get("Content-Type"); ct != "text/html; charset=utf-8" {
		t.Errorf("format=html got Content-Type %q", ct)
	}
}

func TestHandlerMethodNotAllowed(t *testing.T) {
	h := goldenStore().Handler()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/debug/requests", nil))
	if rr.Code != 405 {
		t.Fatalf("POST got %d, want 405", rr.Code)
	}
}
