package obs

// HTTP observability surface, stdlib-only. One handler exposes the
// three export formats a long-running multiply service needs:
//
//	/metrics      Prometheus text exposition rendered live from the
//	              Collector (counters, gauges, and the log-bucketed
//	              histograms as cumulative le-buckets)
//	/debug/vars   the expvar registry (obs.Publish registers a
//	              Collector there as live snapshot JSON)
//	/debug/pprof  the net/http/pprof profile family
//
// The format pinned by testdata/metrics.golden.txt is the subset of
// the Prometheus exposition format the stdlib can render without a
// client library: HELP/TYPE comments, plain and labelled samples, and
// histogram _bucket/_sum/_count series with only the non-empty
// cumulative buckets emitted (plus the mandatory +Inf).

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// MetricsWriter appends extra Prometheus-text metric families to a
// /metrics scrape. A serving layer passes one to Mount so its own
// request/queue metrics appear on the same endpoint as the engine's,
// rather than forcing a second port or a second scrape target.
type MetricsWriter func(w io.Writer)

// Mount registers the observability endpoints on an existing mux:
//
//	/metrics      Prometheus text format (WriteMetrics + extras)
//	/debug/vars   the expvar registry (see Publish)
//	/debug/pprof  the net/http/pprof profile family
//
// It deliberately claims no other pattern — in particular not "/" — so
// a server can mount it next to its own routes on one http.Server.
// Mounting twice on one mux is a no-op for the already-claimed patterns
// (the first registration wins) rather than the ServeMux duplicate
// panic, so composed layers that each mount defensively can share a
// mux. Handler and Serve are the standalone conveniences built on it.
// The collector may be shared with live multiplications; every scrape
// takes a fresh snapshot.
func Mount(mux *http.ServeMux, c *Collector, extra ...MetricsWriter) {
	MountDebug(mux, "/metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteMetrics(w, c)
		for _, fn := range extra {
			fn(w)
		}
	}))
	MountDebug(mux, "/debug/vars", expvar.Handler())
	MountDebug(mux, "/debug/pprof/", http.HandlerFunc(pprof.Index))
	MountDebug(mux, "/debug/pprof/cmdline", http.HandlerFunc(pprof.Cmdline))
	MountDebug(mux, "/debug/pprof/profile", http.HandlerFunc(pprof.Profile))
	MountDebug(mux, "/debug/pprof/symbol", http.HandlerFunc(pprof.Symbol))
	MountDebug(mux, "/debug/pprof/trace", http.HandlerFunc(pprof.Trace))
}

// MountDebug registers one handler on the shared observability surface,
// tolerating an already-claimed pattern (first registration wins, no
// panic). Layers with their own debug endpoints — e.g. the serving
// layer's /debug/requests trace inspector — use it to join the one-port
// surface Mount establishes.
func MountDebug(mux *http.ServeMux, pattern string, h http.Handler) {
	defer func() { recover() }() // ServeMux panics on duplicate patterns
	mux.Handle(pattern, h)
}

// Handler returns a standalone http.Handler serving the observability
// surface for c: everything Mount registers plus a plain-text index at
// /. Use Mount directly to share a mux with other routes.
func Handler(c *Collector) http.Handler {
	mux := http.NewServeMux()
	Mount(mux, c)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "abmm observability\n\n/metrics      Prometheus text format\n/debug/vars   expvar JSON\n/debug/pprof  pprof profiles\n")
	})
	return mux
}

// Server is a running observability HTTP server; see Serve.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts an observability server for c on addr (host:port;
// ":0" picks a free port — read it back from Addr). It returns as soon
// as the listener is bound; serving continues on a background
// goroutine until Close.
func Serve(addr string, c *Collector) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: Handler(c)}}
	// Serve returns when Close closes the listener: that close is the
	// goroutine's stop signal.
	//abmm:allow goroutine-lifecycle
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the server's bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close stops the server and releases the listener.
func (s *Server) Close() error { return s.srv.Close() }

// WriteMetrics renders the collector's current state in Prometheus
// text exposition format. A nil collector renders the empty state.
func WriteMetrics(w io.Writer, c *Collector) {
	s := c.Snapshot()

	counter := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %s\n", name, help, name, name, fnum(v))
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, fnum(v))
	}

	counter("abmm_mults_total", "Completed multiplications.", float64(s.Mults))
	counter("abmm_mul_seconds_total", "Total multiplication wall time in seconds.", s.Seconds)
	counter("abmm_classical_flops_total", "Classical-equivalent flops (2mkn) of completed multiplications.", float64(s.ClassicalFlops))
	counter("abmm_alg_flops_total", "True algorithm flops (stability.ArithmeticCost) of completed multiplications.", float64(s.AlgFlops))
	gauge("abmm_levels_max", "Maximum compiled recursion depth observed.", float64(s.Levels))

	fmt.Fprintf(w, "# HELP abmm_phase_seconds_total Wall time per Algorithm 1 pipeline phase in seconds.\n# TYPE abmm_phase_seconds_total counter\n")
	for _, p := range s.Phases {
		fmt.Fprintf(w, "abmm_phase_seconds_total{phase=%q} %s\n", p.Name, fnum(p.Seconds))
	}

	counter("abmm_arena_releases_total", "Workspace arena releases.", float64(s.Arena.Releases))
	counter("abmm_arena_requested_bytes_total", "Scratch bytes requested from workspace arenas.", float64(s.Arena.RequestedBytes))
	counter("abmm_arena_reused_bytes_total", "Requested scratch bytes served from warm free lists.", float64(s.Arena.ReusedBytes))
	gauge("abmm_arena_alloc_bytes", "Lifetime allocated arena float storage (max across releases).", float64(s.Arena.AllocBytes))
	gauge("abmm_arena_high_water_bytes", "Peak simultaneously-outstanding arena scratch (max across releases).", float64(s.Arena.HighWaterBytes))

	writeHist(w, "abmm_mul_duration_seconds", "Per-multiplication wall time in seconds.", "", c.mulDurHist().Snapshot(), 1e-9)
	fmt.Fprintf(w, "# HELP abmm_phase_duration_seconds Per-phase span duration in seconds.\n# TYPE abmm_phase_duration_seconds histogram\n")
	for i := 0; i < NumPhases; i++ {
		writeHistSeries(w, "abmm_phase_duration_seconds", fmt.Sprintf("phase=%q", Phase(i).String()), c.hist(i).Snapshot(), 1e-9)
	}
	writeHist(w, "abmm_arena_request_bytes", "Per-release requested arena scratch bytes.", "", c.arenaReqHist().Snapshot(), 1)

	counter("abmm_error_samples_total", "Multiplications re-run through the quad-precision reference.", float64(s.Errors.Samples))
	writeHist(w, "abmm_error_measured", "Sampled relative error vs the quad-precision reference (max norms).", "", c.errMeasuredHist().Snapshot(), 1/errAttoScale)
	writeHist(w, "abmm_error_bound_ratio", "Sampled measured error over the predicted Theorem III.8 bound.", "", c.errRatioHist().Snapshot(), 1/errAttoScale)
}

// Histogram accessors tolerating a nil collector (nil *Histogram
// snapshots to the empty distribution).
func (c *Collector) hist(phase int) *Histogram {
	if c == nil {
		return nil
	}
	return &c.phaseDur[phase]
}

func (c *Collector) mulDurHist() *Histogram {
	if c == nil {
		return nil
	}
	return &c.mulDur
}

func (c *Collector) arenaReqHist() *Histogram {
	if c == nil {
		return nil
	}
	return &c.arenaReq
}

func (c *Collector) errMeasuredHist() *Histogram {
	if c == nil {
		return nil
	}
	return &c.errMeasured
}

func (c *Collector) errRatioHist() *Histogram {
	if c == nil {
		return nil
	}
	return &c.errRatio
}

// WriteHistogram renders one histogram snapshot as a complete
// Prometheus metric family (HELP/TYPE header plus cumulative
// _bucket/_sum/_count series), with recorded values multiplied by
// scale on output. It exists for MetricsWriter extras: a layer that
// keeps its own obs.Histogram (e.g. the HTTP serving layer's
// request-duration and queue-wait distributions) renders it onto the
// shared /metrics endpoint in the same format as the engine families.
func WriteHistogram(w io.Writer, name, help string, h HistSnapshot, scale float64) {
	writeHist(w, name, help, "", h, scale)
}

// writeHist emits one full histogram metric family (HELP/TYPE plus the
// series); writeHistSeries emits only the series, for families that
// carry several labelled histograms under one TYPE header.
func writeHist(w io.Writer, name, help, labels string, h HistSnapshot, scale float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	writeHistSeries(w, name, labels, h, scale)
}

func writeHistSeries(w io.Writer, name, labels string, h HistSnapshot, scale float64) {
	withLe := func(le string) string {
		if labels == "" {
			return `{le="` + le + `"}`
		}
		return "{" + labels + `,le="` + le + `"}`
	}
	plain := ""
	if labels != "" {
		plain = "{" + labels + "}"
	}
	var cum int64
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		cum += c
		_, hi := histBucketBounds(i)
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLe(fnum(hi*scale)), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLe("+Inf"), h.Count)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, plain, fnum(float64(h.Sum)*scale))
	fmt.Fprintf(w, "%s_count%s %d\n", name, plain, h.Count)
}

// fnum formats a float the shortest way that round-trips, matching
// what Prometheus client libraries emit.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
