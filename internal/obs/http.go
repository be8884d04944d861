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
// Family (below) writes every /metrics family of the module, in the
// subset of the Prometheus text format the stdlib can render without
// a client library.

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
	if c == nil {
		c = new(Collector)
	}
	s := c.Snapshot()

	WriteFamily(w, "abmm_mults_total", "counter", "Completed multiplications.").Float(float64(s.Mults))
	WriteFamily(w, "abmm_mul_seconds_total", "counter", "Total multiplication wall time in seconds.").Float(s.Seconds)
	WriteFamily(w, "abmm_classical_flops_total", "counter", "Classical-equivalent flops (2mkn) of completed multiplications.").Float(float64(s.ClassicalFlops))
	WriteFamily(w, "abmm_alg_flops_total", "counter", "True algorithm flops (stability.ArithmeticCost) of completed multiplications.").Float(float64(s.AlgFlops))
	WriteFamily(w, "abmm_levels_max", "gauge", "Maximum compiled recursion depth observed.").Float(float64(s.Levels))

	phases := WriteFamily(w, "abmm_phase_seconds_total", "counter", "Wall time per Algorithm 1 pipeline phase in seconds.")
	for _, p := range s.Phases {
		phases.Float(p.Seconds, "phase", p.Name)
	}

	WriteFamily(w, "abmm_arena_releases_total", "counter", "Workspace arena releases.").Float(float64(s.Arena.Releases))
	WriteFamily(w, "abmm_arena_requested_bytes_total", "counter", "Scratch bytes requested from workspace arenas.").Float(float64(s.Arena.RequestedBytes))
	WriteFamily(w, "abmm_arena_reused_bytes_total", "counter", "Requested scratch bytes served from warm free lists.").Float(float64(s.Arena.ReusedBytes))
	WriteFamily(w, "abmm_arena_alloc_bytes", "gauge", "Lifetime allocated arena float storage (max across releases).").Float(float64(s.Arena.AllocBytes))
	WriteFamily(w, "abmm_arena_high_water_bytes", "gauge", "Peak simultaneously-outstanding arena scratch (max across releases).").Float(float64(s.Arena.HighWaterBytes))

	WriteFamily(w, "abmm_mul_duration_seconds", "histogram", "Per-multiplication wall time in seconds.").Hist(c.mulDur.Snapshot(), 1e-9)
	phaseDur := WriteFamily(w, "abmm_phase_duration_seconds", "histogram", "Per-phase span duration in seconds.")
	for i := range c.phaseDur {
		phaseDur.Hist(c.phaseDur[i].Snapshot(), 1e-9, "phase", Phase(i).String())
	}
	WriteFamily(w, "abmm_arena_request_bytes", "histogram", "Per-release requested arena scratch bytes.").Hist(c.arenaReq.Snapshot(), 1)

	WriteFamily(w, "abmm_error_samples_total", "counter", "Multiplications re-run through the quad-precision reference.").Float(float64(s.Errors.Samples))
	WriteFamily(w, "abmm_error_measured", "histogram", "Sampled relative error vs the quad-precision reference (max norms).").Hist(c.errMeasured.Snapshot(), 1/errAttoScale)
	WriteFamily(w, "abmm_error_bound_ratio", "histogram", "Sampled measured error over the predicted Theorem III.8 bound.").Hist(c.errRatio.Snapshot(), 1/errAttoScale)
}

// Family is one metric family being written to a /metrics scrape:
// WriteFamily emits its HELP/TYPE header, Int, Float and Hist its
// samples, labelled by name/value pairs ("plan", p.Plan) whose values
// are quoted as %q quotes them and judged by metric-cardinality.
type Family struct {
	w    io.Writer
	name string
}

// WriteFamily writes the header of metric family name, of Prometheus
// type typ (counter, gauge or histogram), and returns the family.
func WriteFamily(w io.Writer, name, typ, help string) Family {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return Family{w, name}
}

// Int writes one integer sample.
//
//abmm:labels
func (f Family) Int(v int64, labels ...string) { f.line("", labels, strconv.FormatInt(v, 10)) }

// Float writes one sample in the shortest form that round-trips, as
// Prometheus client libraries do.
//
//abmm:labels
func (f Family) Float(v float64, labels ...string) { f.line("", labels, fnum(v)) }

// Hist writes one histogram's series: the cumulative _bucket counts of
// its non-empty buckets plus the mandatory +Inf, then _sum and _count,
// with recorded values multiplied by scale on output.
//
//abmm:labels
func (f Family) Hist(h HistSnapshot, scale float64, labels ...string) {
	labels = labels[:len(labels):len(labels)] // each le append copies
	var cum int64
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		cum += c
		_, hi := histBucketBounds(i)
		f.line("_bucket", append(labels, "le", fnum(hi*scale)), strconv.FormatInt(cum, 10))
	}
	f.line("_bucket", append(labels, "le", "+Inf"), strconv.FormatInt(h.Count, 10))
	f.line("_sum", labels, fnum(float64(h.Sum)*scale))
	f.line("_count", labels, strconv.FormatInt(h.Count, 10))
}

// line writes one sample: the family name and suffix, the label block
// when there are labels, and the value.
func (f Family) line(suffix string, labels []string, value string) {
	sep, s := "{", f.name+suffix
	for i := 0; i+1 < len(labels); i += 2 {
		s += sep + labels[i] + "=" + strconv.Quote(labels[i+1])
		sep = ","
	}
	if sep == "," {
		s += "}"
	}
	io.WriteString(f.w, s+" "+value+"\n")
}

// fnum formats a float the shortest way that round-trips.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
