package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestMetricsGolden pins the Prometheus text exposition the same way
// TestSnapshotGoldenJSON pins the JSON schema: a fixed collector
// history must render byte-identically. Regenerate with
// `go test -run Golden ./internal/obs -update` after a deliberate
// format change.
func TestMetricsGolden(t *testing.T) {
	var buf bytes.Buffer
	WriteMetrics(&buf, goldenCollector())
	got := buf.Bytes()
	path := filepath.Join("testdata", "metrics.golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("metrics exposition drifted (run with -update if deliberate)\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestMetricsWellFormed parses every non-comment line of the rendering:
// name{labels} value, histogram buckets cumulative and consistent with
// _count, and a nil collector rendering the empty state without
// panicking.
func TestMetricsWellFormed(t *testing.T) {
	var buf bytes.Buffer
	WriteMetrics(&buf, goldenCollector())

	counts := map[string]int64{}    // family → _count value
	bucketInf := map[string]int64{} // family → +Inf bucket value
	lastCum := map[string]int64{}   // family+labels-sans-le → last cumulative bucket
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed line %q", line)
		}
		series, val := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("unbalanced labels in %q", line)
			}
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			fam := strings.TrimSuffix(name, "_bucket")
			key := fam + stripLe(series)
			n, _ := strconv.ParseInt(val, 10, 64)
			if n < lastCum[key] {
				t.Errorf("non-monotone cumulative buckets for %s: %d after %d", key, n, lastCum[key])
			}
			lastCum[key] = n
			if strings.Contains(series, `le="+Inf"`) {
				bucketInf[key] = n
			}
		case strings.HasSuffix(name, "_count"):
			fam := strings.TrimSuffix(name, "_count")
			n, _ := strconv.ParseInt(val, 10, 64)
			counts[fam+labelsOf(series)] = n
		}
	}
	if len(bucketInf) == 0 {
		t.Fatal("no histogram buckets rendered")
	}
	for key, inf := range bucketInf {
		if counts[key] != inf {
			t.Errorf("%s: +Inf bucket %d != _count %d", key, inf, counts[key])
		}
	}

	buf.Reset()
	WriteMetrics(&buf, nil)
	if !strings.Contains(buf.String(), "abmm_mults_total 0") {
		t.Error("nil collector did not render empty state")
	}
}

func stripLe(series string) string {
	i := strings.IndexByte(series, '{')
	if i < 0 {
		return ""
	}
	var kept []string
	for _, l := range strings.Split(strings.TrimSuffix(series[i+1:], "}"), ",") {
		if !strings.HasPrefix(l, "le=") {
			kept = append(kept, l)
		}
	}
	if len(kept) == 0 {
		return ""
	}
	return "{" + strings.Join(kept, ",") + "}"
}

func labelsOf(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[i:]
	}
	return ""
}

// TestServeEndpoints boots the real server on a loopback port and
// checks each endpoint end to end.
func TestServeEndpoints(t *testing.T) {
	c := goldenCollector()
	Publish("abmm_http_test", c)
	srv, err := Serve("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(b)
	}

	if code, body := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "abmm_mults_total 1") ||
		!strings.Contains(body, `abmm_phase_duration_seconds_bucket{phase="bilinear"`) ||
		!strings.Contains(body, "abmm_error_bound_ratio_count") {
		t.Errorf("/metrics: code %d, body:\n%s", code, body)
	}
	if code, body := get("/debug/vars"); code != http.StatusOK ||
		!strings.Contains(body, "abmm_http_test") {
		t.Errorf("/debug/vars: code %d, body:\n%.400s", code, body)
	}
	if code, body := get("/debug/pprof/cmdline"); code != http.StatusOK || body == "" {
		t.Errorf("/debug/pprof/cmdline: code %d", code)
	}
	if code, body := get("/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index: code %d, body %q", code, body)
	}
	if code, _ := get("/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path: code %d, want 404", code)
	}
	if srv.Addr() == "" || !strings.HasPrefix(srv.URL(), "http://127.0.0.1:") {
		t.Errorf("addr/url: %q %q", srv.Addr(), srv.URL())
	}
}

// TestMountTwiceIsNoop pins Mount's idempotency: composed layers that
// each mount defensively must share one mux without the ServeMux
// duplicate-pattern panic, and the first registration must keep
// serving.
func TestMountTwiceIsNoop(t *testing.T) {
	c := goldenCollector()
	mux := http.NewServeMux()
	Mount(mux, c)
	Mount(mux, NewCollector()) // second mount: swallowed, first wins

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "abmm_mults_total 1") {
		t.Errorf("first mount's collector not serving after double mount: code %d", rec.Code)
	}
}

// TestMountDebugFirstWins pins MountDebug directly: a second handler on
// a claimed pattern is dropped, and a fresh pattern registers.
func TestMountDebugFirstWins(t *testing.T) {
	mux := http.NewServeMux()
	serve := func(body string) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, body)
		})
	}
	MountDebug(mux, "/debug/custom", serve("first"))
	MountDebug(mux, "/debug/custom", serve("second"))
	MountDebug(mux, "/debug/other", serve("other"))

	get := func(path string) string {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Body.String()
	}
	if got := get("/debug/custom"); got != "first" {
		t.Errorf("/debug/custom served %q, want the first registration", got)
	}
	if got := get("/debug/other"); got != "other" {
		t.Errorf("/debug/other served %q", got)
	}
}

// TestMetricsContentType pins the exposition Content-Type the scrape
// endpoint declares.
func TestMetricsContentType(t *testing.T) {
	mux := http.NewServeMux()
	Mount(mux, NewCollector())
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	want := "text/plain; version=0.0.4; charset=utf-8"
	if got := rec.Header().Get("Content-Type"); got != want {
		t.Errorf("/metrics Content-Type = %q, want %q", got, want)
	}
}

// TestServeBadAddr pins the error path: an unbindable address must
// surface as an error, not a background panic.
func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("256.0.0.1:99999", NewCollector()); err == nil {
		t.Fatal("expected listen error")
	}
}

func ExampleWriteMetrics() {
	c := NewCollector()
	c.MulDone(MulInfo{M: 2, K: 2, N: 2, ClassicalFlops: 16}, time.Millisecond)
	var buf bytes.Buffer
	WriteMetrics(&buf, c)
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "abmm_mults_total ") || strings.HasPrefix(line, "abmm_classical_flops_total ") {
			fmt.Println(line)
		}
	}
	// Output:
	// abmm_mults_total 1
	// abmm_classical_flops_total 16
}
