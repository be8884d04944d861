package server

// End-to-end tests for request tracing: traceparent propagation over
// HTTP, the /debug/requests rings, trace IDs on error responses and
// panics, and structured logs.

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"abmm/internal/reqtrace"
)

const (
	testTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	testTraceIDHex  = "4bf92f3577b34da6a3ce929d0e0e4736"
)

// tracedServer builds a test server whose slog output is captured.
func tracedServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *bytes.Buffer) {
	t.Helper()
	var logBuf bytes.Buffer
	cfg.Logger = slog.New(slog.NewTextHandler(&logBuf, nil))
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, &logBuf
}

func postTraced(t *testing.T, ts *httptest.Server, body io.Reader, contentType, traceparent string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/multiply", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestServerTraceparentRoundTrip(t *testing.T) {
	s, ts, logBuf := tracedServer(t, Config{})

	body := `{"alg":"ours","levels":1,"a":[[1,2],[3,4]],"b":[[5,6],[7,8]]}`
	resp := postTraced(t, ts, strings.NewReader(body), "application/json", testTraceparent)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	if got := resp.Header.Get("X-Abmm-Trace-Id"); got != testTraceIDHex {
		t.Fatalf("X-Abmm-Trace-Id = %q, want %q", got, testTraceIDHex)
	}
	tp := resp.Header.Get("traceparent")
	if !strings.HasPrefix(tp, "00-"+testTraceIDHex+"-") {
		t.Fatalf("response traceparent %q does not continue trace %s", tp, testTraceIDHex)
	}

	id, _, ok := reqtrace.ParseTraceparent(testTraceparent)
	if !ok {
		t.Fatal("test traceparent failed to parse")
	}
	tr := s.Traces().Lookup(id)
	if tr == nil {
		t.Fatal("trace not filed in /debug/requests rings")
	}
	if !tr.Remote() {
		t.Error("client-originated trace should be marked remote")
	}
	if tr.Outcome() != reqtrace.OutcomeOK {
		t.Fatalf("outcome %v, want OK", tr.Outcome())
	}
	snap := tr.Snapshot()
	// The serving-layer spans are always present; of the engine's
	// pipeline phases, bilinear always runs (pad/forward/inverse/crop
	// depend on shape and basis, covered by internal/core's trace tests).
	want := map[string]bool{
		"decode": false, "admission": false,
		"plan-resolve": false, "exec": false, "encode": false,
		"bilinear": false,
	}
	for _, sp := range snap.Spans {
		if _, tracked := want[sp.Name]; tracked {
			want[sp.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("span %q missing from trace (got %d spans)", name, len(snap.Spans))
		}
	}
	if snap.Engine.KernelCalls == 0 {
		t.Errorf("engine aggregates empty: %+v", snap.Engine)
	}
	if snap.Shape != "2x2x2" {
		t.Errorf("shape %q, want 2x2x2", snap.Shape)
	}

	logs := logBuf.String()
	if !strings.Contains(logs, "trace_id="+testTraceIDHex) {
		t.Errorf("slog output missing trace_id attribute:\n%s", logs)
	}
	if !strings.Contains(logs, "multiply ok") {
		t.Errorf("slog output missing completion record:\n%s", logs)
	}
}

func TestServerErrorResponsesCarryTraceID(t *testing.T) {
	s, ts, logBuf := tracedServer(t, Config{})

	resp := postTraced(t, ts, strings.NewReader(`{"alg":`), "application/json", testTraceparent)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Abmm-Trace-Id"); got != testTraceIDHex {
		t.Fatalf("400 X-Abmm-Trace-Id = %q, want %q", got, testTraceIDHex)
	}
	if n := s.Traces().Total(reqtrace.BucketErrored); n != 1 {
		t.Fatalf("errored ring total = %d, want 1", n)
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "request failed") || !strings.Contains(logs, "trace_id="+testTraceIDHex) {
		t.Errorf("error log missing trace_id:\n%s", logs)
	}
}

func TestServerDrainingCarriesTraceID(t *testing.T) {
	s, ts, _ := tracedServer(t, Config{})
	s.draining.Store(true)

	resp := postTraced(t, ts, strings.NewReader("{}"), "application/json", testTraceparent)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Abmm-Trace-Id"); got != testTraceIDHex {
		t.Fatalf("503 X-Abmm-Trace-Id = %q, want %q", got, testTraceIDHex)
	}
}

func TestServerPanicSealsTrace(t *testing.T) {
	s, ts, logBuf := tracedServer(t, Config{})
	id := reqtrace.ID{Hi: 0xdead, Lo: 0xbeef}
	s.mux.HandleFunc("/boom", func(w http.ResponseWriter, r *http.Request) {
		holdTrace(r, reqtrace.NewRemote(id, 7))
		panic("kaboom")
	})

	resp, err := ts.Client().Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Abmm-Trace-Id"); got != id.String() {
		t.Fatalf("500 X-Abmm-Trace-Id = %q, want %q", got, id.String())
	}
	if s.panics.Load() != 1 {
		t.Fatalf("panics counter = %d, want 1", s.panics.Load())
	}
	tr := s.Traces().Lookup(id)
	if tr == nil {
		t.Fatal("panicked request's trace not filed")
	}
	if tr.Outcome() != reqtrace.OutcomeError || !strings.Contains(tr.Err(), "kaboom") {
		t.Fatalf("outcome %v err %q, want error mentioning kaboom", tr.Outcome(), tr.Err())
	}
	if !strings.Contains(logBuf.String(), "trace_id="+id.String()) {
		t.Errorf("panic log missing trace_id:\n%s", logBuf.String())
	}
}

func TestServerTraceSampling(t *testing.T) {
	body := func() io.Reader {
		return strings.NewReader(`{"alg":"strassen","a":[[1,2],[3,4]],"b":[[5,6],[7,8]]}`)
	}

	// Local sampling disabled: plain requests untraced, traceparent
	// still always traced.
	s, ts, _ := tracedServer(t, Config{TraceSample: -1})
	resp := postTraced(t, ts, body(), "application/json", "")
	resp.Body.Close()
	if got := resp.Header.Get("X-Abmm-Trace-Id"); got != "" {
		t.Fatalf("sampling disabled but response traced (%q)", got)
	}
	if n := s.Traces().Total(reqtrace.BucketRecent); n != 0 {
		t.Fatalf("recent ring total = %d, want 0", n)
	}
	resp = postTraced(t, ts, body(), "application/json", testTraceparent)
	resp.Body.Close()
	if resp.Header.Get("X-Abmm-Trace-Id") != testTraceIDHex {
		t.Fatal("client traceparent should trace even with sampling disabled")
	}

	// Every-nth sampling: with n=2 exactly one of the first two plain
	// requests is traced.
	s2, ts2, _ := tracedServer(t, Config{TraceSample: 2})
	traced := 0
	for i := 0; i < 2; i++ {
		resp := postTraced(t, ts2, body(), "application/json", "")
		resp.Body.Close()
		if resp.Header.Get("X-Abmm-Trace-Id") != "" {
			traced++
		}
	}
	if traced != 1 {
		t.Fatalf("TraceSample=2 traced %d of 2 requests, want 1", traced)
	}
	if n := s2.Traces().Total(reqtrace.BucketRecent); n != 1 {
		t.Fatalf("recent ring total = %d, want 1", n)
	}
}

func TestServerTraceSpanSumsWithinTotal(t *testing.T) {
	s, ts, _ := tracedServer(t, Config{})
	resp := postTraced(t, ts, strings.NewReader(`{"alg":"ours","a":[[1,2],[3,4]],"b":[[5,6],[7,8]]}`),
		"application/json", testTraceparent)
	resp.Body.Close()
	id, _, _ := reqtrace.ParseTraceparent(testTraceparent)
	tr := s.Traces().Lookup(id)
	if tr == nil {
		t.Fatal("trace not filed")
	}
	snap := tr.Snapshot()
	var rootNs int64
	for _, sp := range snap.Spans {
		if sp.Parent == -1 {
			rootNs += sp.EndNs - sp.StartNs
		}
		if sp.EndNs < sp.StartNs {
			t.Fatalf("span %q ends before it starts: [%d, %d]", sp.Name, sp.StartNs, sp.EndNs)
		}
	}
	if rootNs > snap.DurationNs+int64(time.Millisecond) {
		t.Fatalf("root spans sum to %dns, exceeding trace total %dns", rootNs, snap.DurationNs)
	}
}
