package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abmm"
	"abmm/internal/obs"
	"abmm/internal/reqtrace"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func binaryBody(t *testing.T, alg string, levels, m, k, n int) (*Request, *bytes.Buffer) {
	t.Helper()
	req := &Request{Alg: alg, Levels: levels, A: testMatrix(m, k, 1), B: testMatrix(k, n, -1)}
	var buf bytes.Buffer
	if err := EncodeRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	return req, &buf
}

func postMultiply(ts *httptest.Server, body io.Reader, contentType string) (*http.Response, error) {
	return ts.Client().Post(ts.URL+"/v1/multiply", contentType, body)
}

func TestServerBinaryRoundTrip(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, body := binaryBody(t, "ours", 1, 16, 24, 8)
	resp, err := postMultiply(ts, body, ContentTypeBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	for _, h := range []string{"X-Abmm-Alg", "X-Abmm-Levels", "X-Abmm-Exec-Ns", "X-Abmm-Error-Bound"} {
		if resp.Header.Get(h) == "" {
			t.Errorf("missing response header %s", h)
		}
	}
	got, err := DecodeResponse(resp.Body, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	want := abmm.MultiplyClassical(req.A, req.B, 0)
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if d := got.Data[i] - want.Data[i]; d > 1e-6 || d < -1e-6 {
			t.Fatalf("c[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestServerJSONEcho(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"alg":"strassen","a":[[1,2],[3,4]],"b":[[5,6],[7,8]]}`
	resp, err := postMultiply(ts, strings.NewReader(body), "application/json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	var out jsonResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			// Small integer-valued product: exact equality is the point.
			//abmm:allow float-discipline
			if out.C[i][j] != want[i][j] {
				t.Fatalf("c[%d][%d] = %v, want %v", i, j, out.C[i][j], want[i][j])
			}
		}
	}
	if out.Alg != "strassen" {
		t.Fatalf("alg %q", out.Alg)
	}
}

// TestServerJSONOverflowIs500 pins the encode-failure path: a product
// that overflows to +Inf has no JSON encoding, so the response must be
// an explicit, counted 500 with a JSON error body — errored in the trace
// store and bad in the SLO — never an empty 200. The binary path carries
// the same IEEE bits fine.
func TestServerJSONOverflowIs500(t *testing.T) {
	s, ts, _ := tracedServer(t, Config{SLO: obs.SLOConfig{ErrorRatioMax: 1, Window: time.Minute}})

	body := `{"alg":"ours","a":[[1e200,1e200],[1e200,1e200]],"b":[[1e200,1e200],[1e200,1e200]]}`
	resp := postTraced(t, ts, strings.NewReader(body), "application/json", testTraceparent)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q, want application/json", ct)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "Inf") {
		t.Fatalf("error body %+v (decode err %v), want a message naming the Inf", e, err)
	}
	if got := resp.Header.Get("X-Abmm-Trace-Id"); got != testTraceIDHex {
		t.Errorf("500 X-Abmm-Trace-Id = %q, want %q", got, testTraceIDHex)
	}
	if ok, failed := s.codes[http.StatusOK].Load(), s.codes[http.StatusInternalServerError].Load(); ok != 0 || failed != 1 {
		t.Errorf("counted %d OK and %d 500, want 0 and 1", ok, failed)
	}
	if n := s.Traces().Total(reqtrace.BucketErrored); n != 1 {
		t.Errorf("errored ring total = %d, want 1", n)
	}
	if st := s.slo.Status(); st.Errors.Long.Total != 1 || st.Errors.Long.Bad != 1 {
		t.Errorf("SLO error objective %+v, want one bad event", st.Errors.Long)
	}

	req := &Request{Alg: "ours", A: abmm.NewMatrix(2, 2), B: abmm.NewMatrix(2, 2)}
	for i := range req.A.Data {
		req.A.Data[i], req.B.Data[i] = 1e200, 1e200
	}
	var buf bytes.Buffer
	if err := EncodeRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	bresp := postTraced(t, ts, &buf, ContentTypeBinary, "")
	defer bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("binary status %d, want 200", bresp.StatusCode)
	}
	got, err := DecodeResponse(bresp.Body, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got.Data {
		if !math.IsInf(v, 1) {
			t.Fatalf("binary c[%d] = %v, want +Inf", i, v)
		}
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	s := newTestServer(t, Config{MaxElems: 1 << 10})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A 4×8·8×4 frame relabeled 4×4·4×4: the header's operands end
	// halfway through the payload, leaving 256 bytes past the frame.
	_, long := binaryBody(t, "ours", 0, 4, 8, 4)
	trailing := long.Bytes()
	binary.LittleEndian.PutUint32(trailing[4+1+len("ours")+1+4:], 4)

	cases := []struct {
		name, ct, body string
		want           int
	}{
		{"unknown alg", "application/json", `{"alg":"nope","a":[[1]],"b":[[1]]}`, http.StatusNotFound},
		{"ragged rows", "application/json", `{"alg":"ours","a":[[1,2],[3]],"b":[[1],[2]]}`, http.StatusBadRequest},
		{"garbage binary", ContentTypeBinary, "not a frame at all", http.StatusBadRequest},
		{"bad timeout", "application/json", `{"alg":"ours","a":[[1]],"b":[[1]]}`, http.StatusBadRequest},
		{"binary trailing bytes", ContentTypeBinary, string(trailing), http.StatusBadRequest},
		{"json second object", "application/json", `{"alg":"ours","a":[[1]],"b":[[1]]} {"alg":"ours","a":[[2]],"b":[[2]]}`, http.StatusBadRequest},
		{"json trailing garbage", "application/json", `{"alg":"ours","a":[[1]],"b":[[1]]}garbage`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		url := ts.URL + "/v1/multiply"
		if tc.name == "bad timeout" {
			url += "?timeout=bogus"
		}
		resp, err := ts.Client().Post(url, tc.ct, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/multiply")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET multiply: status %d, want 405", resp.StatusCode)
	}
}

// TestServerOverload drives the admission gate deterministically: with
// one execution slot held and a one-deep queue occupied, the next
// request must bounce with 429 + Retry-After, the queue-depth gauge
// must have moved, and no admitted request may lose its result.
func TestServerOverload(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 1, MaxQueued: 1, QueueTimeout: 5 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the only execution slot directly.
	release, _, err := s.gate.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// One request sits in the queue...
	queued := make(chan *http.Response, 1)
	go func() {
		_, body := binaryBody(t, "ours", 1, 8, 8, 8)
		resp, err := postMultiply(ts, body, ContentTypeBinary)
		if err != nil {
			t.Error(err)
			queued <- nil
			return
		}
		queued <- resp
	}()
	for s.gate.queued.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	// ...so the next one is shed immediately.
	_, body := binaryBody(t, "ours", 1, 8, 8, 8)
	resp, err := postMultiply(ts, body, ContentTypeBinary)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, msg)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// The gauges and counters saw the episode.
	if got := s.gate.queuedPeak.Load(); got < 1 {
		t.Errorf("queuedPeak = %d, want >= 1", got)
	}
	if got := s.gate.rejectedFull.Load(); got != 1 {
		t.Errorf("rejectedFull = %d, want 1", got)
	}

	// Freeing the slot drains the queued request to a full result: shed
	// load costs the shedder only, never an admitted request.
	release()
	qresp := <-queued
	if qresp == nil {
		t.Fatal("queued request failed")
	}
	defer qresp.Body.Close()
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("queued request status %d, want 200", qresp.StatusCode)
	}
	if _, err := DecodeResponse(qresp.Body, 1<<20); err != nil {
		t.Fatalf("queued request result: %v", err)
	}

	// The metrics endpoint reports the same story.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`abmm_server_rejected_total{reason="queue_full"} 1`,
		`abmm_server_queue_depth_peak 1`,
		`abmm_server_requests_total{code="429"} 1`,
		`abmm_server_requests_total{code="200"} 1`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestServerConcurrentSameShape hammers one shape through the shared
// Multiplier from many goroutines; run under -race this pins the
// concurrency contract of plan sharing: concurrent same-shape misses
// compile one plan.
func TestServerConcurrentSameShape(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 4, MaxQueued: 64, QueueTimeout: 30 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 16
	req := &Request{Alg: "ours", Levels: 1, A: testMatrix(32, 32, 1), B: testMatrix(32, 32, -1)}
	want := abmm.MultiplyClassical(req.A, req.B, 0)

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			if err := EncodeRequest(&buf, req); err != nil {
				errs <- err
				return
			}
			resp, err := postMultiply(ts, &buf, ContentTypeBinary)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				msg, _ := io.ReadAll(resp.Body)
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, msg)
				return
			}
			got, err := DecodeResponse(resp.Body, 1<<20)
			if err != nil {
				errs <- err
				return
			}
			for j := range want.Data {
				if d := got.Data[j] - want.Data[j]; d > 1e-8 || d < -1e-8 {
					errs <- fmt.Errorf("element %d: %v != %v", j, got.Data[j], want.Data[j])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Exactly one Multiplier and (by shape) one plan served them all.
	s.musMu.RLock()
	defer s.musMu.RUnlock()
	if len(s.mus) != 1 {
		t.Fatalf("multiplier registry holds %d entries, want 1", len(s.mus))
	}
	for _, mu := range s.mus {
		if st := mu.Stats(); st.Misses != 1 {
			t.Errorf("plan cache compiled %d plans for one shape, want 1", st.Misses)
		}
	}
}

// TestServerConcurrentMixedShapes pins the pooled-buffer lifetimes:
// operands, products and codec chunks of many shapes cycle through the
// shared pools while requests that a deadline cancels mid-recursion
// release theirs early. Every 200 must still be bitwise the in-process
// product; run under -race (make race), a buffer recycled while a
// worker still touched it also shows as a race.
func TestServerConcurrentMixedShapes(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 4, MaxQueued: 64, QueueTimeout: time.Minute})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type shape struct {
		alg             string
		levels, m, k, n int
		timeout         string // ?timeout= value; "" = none
	}
	// Size classes collide on purpose, so a buffer released too early
	// is redrawn by a concurrent request: 512×512 operands (class 2¹⁸)
	// by both thin shapes and the canceled request, 256² ones (2¹⁶) by
	// the L1 request and strassen's B. winograd's odd shape rounds up.
	shapes := []shape{
		{"ours", 1, 32, 32, 32, ""},
		{"ours", 0, 512, 512, 8, ""},
		{"ours", 0, 8, 512, 512, ""},
		{"ours", 1, 256, 256, 256, ""},
		{"strassen", 0, 128, 256, 256, ""},
		{"winograd", LevelsAuto, 100, 60, 130, ""},
		{"ours", 2, 512, 512, 512, "1ms"},
	}
	type job struct {
		shape
		req  *Request
		want *abmm.Matrix
	}
	jobs := make([]job, len(shapes))
	for i, sh := range shapes {
		req := &Request{Alg: sh.alg, Levels: sh.levels,
			A: testMatrix(sh.m, sh.k, float64(i+1)), B: testMatrix(sh.k, sh.n, -float64(i+1))}
		alg, err := abmm.Lookup(sh.alg)
		if err != nil {
			t.Fatal(err)
		}
		mu := abmm.NewMultiplier(alg, abmm.Options{Levels: sh.levels, Workers: s.cfg.Workers})
		jobs[i] = job{sh, req, mu.Plan(sh.m, sh.k, sh.n).Multiply(req.A, req.B)}
	}

	const clients, rounds = 8, 3
	var wg sync.WaitGroup
	var canceled, completed atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds*len(jobs); r++ {
				j := jobs[(c+r)%len(jobs)]
				var buf bytes.Buffer
				if err := EncodeRequest(&buf, j.req); err != nil {
					t.Error(err)
					return
				}
				url := ts.URL + "/v1/multiply"
				if j.timeout != "" {
					url += "?timeout=" + j.timeout
				}
				resp, err := ts.Client().Post(url, ContentTypeBinary, &buf)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode == http.StatusGatewayTimeout && j.timeout != "" {
					canceled.Add(1)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%v: status %d: %s", j.shape, resp.StatusCode, body)
					return
				}
				if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(body)) {
					t.Errorf("%v: Content-Length %q for a %d-byte body", j.shape, got, len(body))
				}
				got, err := DecodeResponse(bytes.NewReader(body), 1<<20)
				if err != nil {
					t.Error(err)
					return
				}
				for e := range j.want.Data {
					if math.Float64bits(got.Data[e]) != math.Float64bits(j.want.Data[e]) {
						t.Errorf("%v: c[%d] = %v, want %v bitwise", j.shape, e, got.Data[e], j.want.Data[e])
						return
					}
				}
				completed.Add(1)
			}
		}(c)
	}
	wg.Wait()
	if canceled.Load() == 0 {
		t.Error("no request was canceled mid-recursion; the early-release path went unexercised")
	}
	t.Logf("%d completed, %d canceled", completed.Load(), canceled.Load())
}

// discardResponse is an http.ResponseWriter that keeps only the
// status, so a handler's own allocations can be counted.
type discardResponse struct {
	h    http.Header
	code int
}

func (w *discardResponse) Header() http.Header         { return w.h }
func (w *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardResponse) WriteHeader(code int)        { w.code = code }

// TestBinaryRequestAllocsFlat pins the pooled request path: once warm,
// a binary request's allocations — count and bytes — do not grow with
// the operands. Operands, product and codec chunks all come back from
// the pools, so what remains is per-request bookkeeping of fixed size.
func TestBinaryRequestAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector skews allocation counts")
	}
	// A GC empties sync.Pools, and a buffer put on one P's private slot
	// is a miss on another: either would make the byte counts flaky.
	// AllocsPerRun runs at GOMAXPROCS 1 too.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := newTestServer(t, Config{Workers: 1, TraceSample: -1})
	h := s.Handler()
	measure := func(n int) (allocs int, bytesPerReq float64) {
		_, frame := binaryBody(t, "ours", 0, n, n, n)
		body := bytes.NewReader(frame.Bytes())
		w := &discardResponse{h: make(http.Header)}
		serve := func() {
			body.Seek(0, io.SeekStart)
			r := httptest.NewRequest(http.MethodPost, "/v1/multiply", body)
			r.Header.Set("Content-Type", ContentTypeBinary)
			w.code = 0
			h.ServeHTTP(w, r)
			if w.code != 0 && w.code != http.StatusOK {
				t.Fatalf("n=%d: status %d", n, w.code)
			}
		}
		serve() // compile the plan, fill the pools
		const runs = 20
		allocs = int(testing.AllocsPerRun(runs, serve))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			serve()
		}
		runtime.ReadMemStats(&m1)
		return allocs, float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := measure(64)
	bigAllocs, bigBytes := measure(512)
	t.Logf("per request: 64² %d allocs %.0f B, 512² %d allocs %.0f B", smallAllocs, smallBytes, bigAllocs, bigBytes)
	if smallAllocs != bigAllocs {
		t.Errorf("allocs per request grow with n: %d at 64², %d at 512²", smallAllocs, bigAllocs)
	}
	if d := bigBytes - smallBytes; d > 1024 || d < -1024 {
		t.Errorf("bytes per request differ by %.0f between 64² (%.0f) and 512² (%.0f), want within 1 KiB", d, smallBytes, bigBytes)
	}
}

func TestServerDrainRefusesNewWork(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, err := ts.Client().Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz before drain: %d", resp.StatusCode)
		}
	}

	s.draining.Store(true)

	_, body := binaryBody(t, "ours", 1, 8, 8, 8)
	resp, err := postMultiply(ts, body, ContentTypeBinary)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("multiply while draining: status %d, want 503", resp.StatusCode)
	}
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", hresp.StatusCode)
	}
}

func TestServerPanicIsolation(t *testing.T) {
	s := newTestServer(t, Config{})
	// Splice a panicking route into the mux behind the wrapper.
	s.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if got := s.panics.Load(); got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}
	// The server still works afterwards.
	_, body := binaryBody(t, "ours", 1, 8, 8, 8)
	ok, err := postMultiply(ts, body, ContentTypeBinary)
	if err != nil {
		t.Fatal(err)
	}
	ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("post-panic multiply: status %d", ok.StatusCode)
	}
}

func TestServerDeadlineExceeded(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a large multiply")
	}
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := binaryBody(t, "ours", 2, 1024, 1024, 1024)
	resp, err := ts.Client().Post(ts.URL+"/v1/multiply?timeout=1ms", ContentTypeBinary, body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if got := s.canceledDeadline.Load(); got != 1 {
		t.Fatalf("canceledDeadline = %d, want 1", got)
	}
}

func TestServerLifecycle(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if !srv.Draining() {
		t.Fatal("not draining after Shutdown")
	}
	if _, err := http.Get(srv.URL() + "/healthz"); err == nil {
		t.Fatal("server still accepting after Shutdown")
	}
}
