// Package server is the HTTP serving layer over the multiply engine:
// it turns the warm plan-cache/arena path that PRs 1–3 built into a
// network service. Requests (binary row-major float64 frames or a JSON
// echo mode for small matrices) are routed through shared
// abmm.Multiplier instances keyed by (algorithm, levels), so every
// request for a previously seen shape executes on the zero-alloc warm
// path (the Multiplier's plan cache compiles each shape once, under its
// mutex); a bounded admission gate sheds overload with 429 +
// Retry-After (admission.go); and every request carries a deadline that
// cancels the recursion cooperatively at node boundaries
// (core.Plan.MultiplyIntoCtx). The observability surface mounts on the
// same mux — one port serves /v1/* and /metrics — with the server's
// own request/queue/admission metrics appended to the engine families.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"abmm"
	"abmm/internal/obs"
	"abmm/internal/pool"
	"abmm/internal/reqtrace"
)

// Config parametrizes a Server. The zero value serves: every catalog
// algorithm, automatic recursion depth, one execution slot per two
// logical CPUs, and conservative queue and size caps.
type Config struct {
	// Algorithms restricts the catalog names the server accepts; empty
	// allows every name abmm.Names reports.
	Algorithms []string
	// Workers is the per-multiplication parallelism (0 = GOMAXPROCS).
	Workers int
	// MaxInFlight bounds concurrently executing multiplications; 0
	// defaults to 2 (the engine parallelizes inside each execution, so
	// a small count keeps the machine busy without cache thrash).
	MaxInFlight int
	// MaxQueued bounds requests waiting for an execution slot; 0
	// defaults to 4 × MaxInFlight. Requests beyond the queue are
	// rejected immediately with 429.
	MaxQueued int
	// QueueTimeout caps how long an admitted-to-queue request may wait
	// for a slot before a 429; 0 defaults to 2s.
	QueueTimeout time.Duration
	// DefaultTimeout is the execution deadline applied when a request
	// does not carry its own (header X-Abmm-Timeout or query
	// ?timeout=); 0 means no default deadline.
	DefaultTimeout time.Duration
	// MaxElems bounds the element count of any operand or result; 0
	// defaults to 16Mi elements (a 4096×4096 float64 matrix, 128 MiB).
	// A request body may hold the bytes of two MaxElems operands plus
	// 1 KiB of framing.
	MaxElems int
	// Collector receives engine and server telemetry; nil creates one.
	Collector *abmm.Collector
	// ErrorSampleEvery enables sampled accuracy telemetry on the shared
	// multipliers (see abmm.Options.ErrorSampleEvery).
	ErrorSampleEvery int
	// Logger receives request-scoped structured logs (completions,
	// rejections, panics), each carrying the request's trace ID when
	// traced; nil discards them.
	Logger *slog.Logger
	// TraceSample traces every nth request that arrives without trace
	// context of its own: 0 defaults to 1 (trace every request — spans
	// are cheap fixed-size annotations), negative disables local
	// sampling. A request carrying a traceparent header or a v2 wire
	// trace field is always traced regardless.
	TraceSample int
	// TraceSlow is the duration at or above which a completed trace also
	// lands in the "slow" ring of /debug/requests; 0 defaults to
	// reqtrace.DefaultSlowThreshold.
	TraceSlow time.Duration
	// TraceRing is the per-bucket capacity of the /debug/requests rings;
	// 0 defaults to reqtrace.DefaultRingSize.
	TraceRing int
	// SLO declares the service objectives (latency p99, measured-error
	// ratio, burn-rate window). The zero value disables the SLO engine:
	// /readyz then reports ready whenever the server is not draining.
	// With objectives set, a multi-window burn rate over them drives
	// /readyz (503 while both windows burn) and feeds the admission gate
	// a shed-probability hint so overload is refused before the
	// objective is violated. See obs.SLOConfig.
	SLO obs.SLOConfig
	// MaxPlans bounds the per-plan telemetry registry behind
	// /debug/plans and the abmm_plan_* metric families; 0 defaults to
	// obs.DefaultMaxPlans. Plans beyond the bound share one "other"
	// slot.
	MaxPlans int
	// Tuner, when non-nil, is attached to every shared multiplier
	// (abmm.Options.Tuner): requests that leave the recursion depth
	// automatic get shape-tuned plans, marked "/tuned" in X-Abmm-Plan
	// and /debug/plans. When the tuner exposes WriteMetrics
	// (internal/tune.Tuner does), its abmm_tune_* families join the
	// /metrics scrape. See cmd/abmmd's -tune-profile and -tune-budget.
	Tuner abmm.Tuner
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 4 * c.MaxInFlight
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 2 * time.Second
	}
	if c.MaxElems <= 0 {
		c.MaxElems = 16 << 20
	}
	if c.Collector == nil {
		c.Collector = abmm.NewCollector()
	}
	if len(c.Algorithms) == 0 {
		c.Algorithms = abmm.Names()
	}
	if c.Logger == nil {
		c.Logger = slog.New(discardHandler{})
	}
	if c.TraceSample == 0 {
		c.TraceSample = 1
	}
	return c
}

// discardHandler is the nil-Logger default. Unlike a text handler
// writing to io.Discard it reports every level disabled, so guarded
// call sites skip formatting records nobody reads. (slog.DiscardHandler
// needs Go 1.24.)
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }

// maxWireLevels caps the per-request recursion depth: beyond this the
// multiplier registry (keyed by algorithm × levels) would be unbounded
// attacker-controlled state, and no served shape benefits from more.
const maxWireLevels = 8

// muKey keys the shared-multiplier registry: one Multiplier per
// (algorithm, requested levels), each holding its own per-shape plan
// cache and arena pools shared across all requests.
type muKey struct {
	alg    string
	levels int
}

// Server is the HTTP serving layer; construct with New, attach with
// Handler or run with Start/Serve, stop with Shutdown (graceful) or
// Close (abrupt).
type Server struct {
	cfg  Config
	rec  *abmm.Collector
	gate *gate
	algs map[string]bool

	musMu sync.RWMutex
	mus   map[muKey]*abmm.Multiplier //abmm:guards musMu

	mux      *http.ServeMux
	httpSrv  *http.Server
	ln       net.Listener
	draining atomic.Bool

	reqDur    obs.Histogram // full request wall time, ns
	queueWait obs.Histogram // admission wait, ns

	codes            map[int]*atomic.Int64
	codesOther       atomic.Int64
	canceledClient   atomic.Int64
	canceledDeadline atomic.Int64
	panics           atomic.Int64

	log       *slog.Logger
	traces    *reqtrace.Store
	traceTick atomic.Int64 // sampling counter for TraceSample > 1

	// Per-plan attribution and SLO-driven readiness: plans backs
	// /debug/plans and the abmm_plan_* families (shared by every
	// Multiplier in mus); slo (nil when Config.SLO is zero) drives
	// /readyz and the gate's shed hint; started anchors /healthz uptime.
	plans   *obs.PlanRegistry
	slo     *obs.SLO
	started time.Time
}

// trackedCodes are the response codes counted individually in
// abmm_server_requests_total, in exposition order; anything else lands
// in code="other".
var trackedCodes = []int{
	http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
	http.StatusMethodNotAllowed, http.StatusRequestEntityTooLarge,
	http.StatusTooManyRequests, statusClientClosedRequest,
	http.StatusInternalServerError, http.StatusServiceUnavailable,
	http.StatusGatewayTimeout,
}

// statusClientClosedRequest is the nginx-convention status logged when
// the client abandoned the request (its context was canceled).
const statusClientClosedRequest = 499

// New builds a Server, validating that every configured algorithm
// exists in the catalog.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		rec:     cfg.Collector,
		gate:    newGate(cfg.MaxInFlight, cfg.MaxQueued, cfg.QueueTimeout),
		algs:    make(map[string]bool, len(cfg.Algorithms)),
		mus:     make(map[muKey]*abmm.Multiplier),
		log:     cfg.Logger,
		traces:  reqtrace.NewStore(cfg.TraceRing, cfg.TraceSlow),
		plans:   obs.NewPlanRegistry(cfg.MaxPlans),
		slo:     obs.NewSLO(cfg.SLO),
		started: time.Now(),
	}
	if s.slo != nil {
		s.gate.shed = s.slo.ShedProbability
	}
	for _, name := range cfg.Algorithms {
		if _, err := abmm.Lookup(name); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.algs[name] = true
	}
	s.codes = make(map[int]*atomic.Int64, len(trackedCodes))
	for _, c := range trackedCodes {
		s.codes[c] = new(atomic.Int64)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/multiply", s.handleMultiply)
	mux.HandleFunc("/v1/algorithms", s.handleAlgorithms)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/readyz", s.handleReady)
	mux.HandleFunc("/", s.handleIndex)
	abmm.MountStats(mux, s.rec, s.writeMetrics)
	obs.MountDebug(mux, "/debug/requests", s.traces.Handler())
	obs.MountDebug(mux, "/debug/plans", s.plans.Handler())
	s.mux = mux
	return s, nil
}

// Traces returns the server's completed-trace store, backing the
// /debug/requests inspector.
func (s *Server) Traces() *reqtrace.Store { return s.traces }

// Collector returns the stats collector shared by the engine and the
// server, for report flushing on shutdown.
func (s *Server) Collector() *abmm.Collector { return s.rec }

// traceHolder carries the request's trace out to the panic-isolation
// wrapper: the handler body stores the trace here as soon as it exists,
// so a later panic can still seal it, log its ID, and echo
// X-Abmm-Trace-Id on the 500.
type traceHolder struct {
	t atomic.Pointer[reqtrace.Trace]
}

type holderKey struct{}

// holdTrace publishes tr (possibly nil) to the request's traceHolder.
func holdTrace(r *http.Request, tr *reqtrace.Trace) {
	if h, ok := r.Context().Value(holderKey{}).(*traceHolder); ok {
		h.t.Store(tr)
	}
}

// Handler returns the server's root handler: all routes behind the
// panic-isolating wrapper. A handler panic answers 500 and increments
// abmm_server_panics_total instead of killing the connection's
// goroutine state or the process; if the request was traced, the panic
// seals its trace as errored and the 500 carries the trace ID.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		holder := &traceHolder{}
		r = r.WithContext(context.WithValue(r.Context(), holderKey{}, holder))
		defer func() {
			if v := recover(); v != nil {
				s.panics.Add(1)
				msg := fmt.Sprintf("internal error: %v", v)
				s.failReq(w, holder.t.Load(), http.StatusInternalServerError, msg)
			}
		}()
		s.mux.ServeHTTP(w, r)
	})
}

// Start binds addr (":0" picks a free port; read it back from Addr)
// and serves in the background until Shutdown or Close.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.Handler()}
	// Serve returns when Shutdown or Close tears the listener down:
	// that teardown is the goroutine's stop signal.
	//abmm:allow goroutine-lifecycle
	go s.httpSrv.Serve(ln)
	return nil
}

// Serve is the one-call form: build a Server from cfg and Start it on
// addr.
func Serve(addr string, cfg Config) (*Server, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Start(addr); err != nil {
		return nil, err
	}
	return s, nil
}

// Addr returns the bound listen address (after Start).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL (after Start).
func (s *Server) URL() string { return "http://" + s.Addr() }

// Shutdown drains gracefully: new multiplication requests are refused
// with 503, idle connections close, and Shutdown returns when every
// in-flight request has finished (or ctx expires). No admitted result
// is dropped.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.httpSrv == nil {
		return nil
	}
	return s.httpSrv.Shutdown(ctx)
}

// Close stops serving immediately, abandoning in-flight connections.
func (s *Server) Close() error {
	s.draining.Store(true)
	if s.httpSrv == nil {
		return nil
	}
	return s.httpSrv.Close()
}

// Draining reports whether the server has begun a graceful shutdown.
func (s *Server) Draining() bool { return s.draining.Load() }

// multiplier returns (building on first use) the shared Multiplier for
// one (algorithm, levels) pair. Sharing is the point: all requests for
// a pair execute through one plan cache and one set of warm arenas.
func (s *Server) multiplier(alg string, levels int) (*abmm.Multiplier, error) {
	if !s.algs[alg] {
		return nil, fmt.Errorf("unknown or disallowed algorithm %q", alg)
	}
	if levels < abmm.AutoLevels || levels > maxWireLevels {
		return nil, fmt.Errorf("levels %d outside [%d, %d]", levels, abmm.AutoLevels, maxWireLevels)
	}
	key := muKey{alg: alg, levels: levels}
	s.musMu.RLock()
	mu := s.mus[key]
	s.musMu.RUnlock()
	if mu != nil {
		return mu, nil
	}
	s.musMu.Lock()
	defer s.musMu.Unlock()
	if mu = s.mus[key]; mu == nil {
		a, err := abmm.Lookup(alg)
		if err != nil {
			return nil, err
		}
		mu = abmm.NewMultiplier(a, abmm.Options{
			Levels:           levels,
			Workers:          s.cfg.Workers,
			Recorder:         s.engineRecorder(),
			ErrorSampleEvery: s.cfg.ErrorSampleEvery,
			Plans:            s.plans,
			Tuner:            s.cfg.Tuner,
		})
		s.mus[key] = mu
	}
	return mu, nil
}

// engineRecorder is what the shared multipliers record through: the
// collector alone, or — when an error objective is configured — the
// collector with sampled error measurements teed to the SLO engine.
func (s *Server) engineRecorder() abmm.Recorder {
	if s.slo == nil {
		return s.rec
	}
	return sloRecorder{Collector: s.rec, slo: s.slo}
}

// sloRecorder forwards sampled accuracy measurements to the SLO engine
// on top of the collector's own recording. The embedded Collector
// supplies every other Recorder (and PprofLabeler) method.
type sloRecorder struct {
	*abmm.Collector
	slo *obs.SLO
}

func (r sloRecorder) ErrorSample(measured, bound float64) {
	r.Collector.ErrorSample(measured, bound)
	r.slo.ErrorSample(measured, bound)
}

// jsonRequest is the JSON echo mode of /v1/multiply, for small
// matrices and by-hand curl use; the binary frame (wire.go) is the
// production format.
type jsonRequest struct {
	Alg    string      `json:"alg"`
	Levels *int        `json:"levels"` // nil = automatic depth
	A      [][]float64 `json:"a"`
	B      [][]float64 `json:"b"`
}

// jsonResponse mirrors the binary response plus the metadata that
// travels in headers for binary clients.
type jsonResponse struct {
	C   [][]float64 `json:"c"`
	Alg string      `json:"alg"`
	// Plan is the compiled plan identity "alg/L<levels>/<schedule>",
	// also echoed as the X-Abmm-Plan header for binary clients.
	Plan       string  `json:"plan"`
	Levels     int     `json:"levels"`
	QueueNs    int64   `json:"queue_ns"`
	ExecNs     int64   `json:"exec_ns"`
	ErrorBound float64 `json:"error_bound"`
}

// startTrace decides a request's tracing before its body is read. A
// client traceparent header always yields a (remote) trace; otherwise
// the TraceSample counter decides whether to originate one locally.
// Returns nil for an untraced request — every trace annotation
// downstream is a nil-safe no-op, keeping the untraced path allocation
// free.
func (s *Server) startTrace(r *http.Request) *reqtrace.Trace {
	if id, span, ok := reqtrace.ParseTraceparent(r.Header.Get("traceparent")); ok {
		return reqtrace.NewRemote(id, span)
	}
	n := s.cfg.TraceSample
	if n <= 0 {
		return nil
	}
	if n > 1 && s.traceTick.Add(1)%int64(n) != 0 {
		return nil
	}
	return reqtrace.New()
}

// reqLog returns the request-scoped logger: the configured logger with
// the trace ID attached when the request is traced.
func (s *Server) reqLog(tr *reqtrace.Trace) *slog.Logger {
	if tr == nil {
		return s.log
	}
	return s.log.With("trace_id", tr.ID().String())
}

// finishTrace seals tr with the outcome and files it in the
// /debug/requests rings; only the first seal wins, so a panic racing a
// normal completion cannot double-file.
func (s *Server) finishTrace(tr *reqtrace.Trace, o reqtrace.Outcome, errMsg string) {
	if tr != nil && tr.Finish(o, errMsg) {
		s.traces.Add(tr)
	}
}

// failReq is the trace-aware fail: every error response from a traced
// request echoes X-Abmm-Trace-Id, logs with the trace ID, and seals the
// trace into the errored (or canceled, for 499/504) ring.
func (s *Server) failReq(w http.ResponseWriter, tr *reqtrace.Trace, code int, msg string) {
	s.sealFailed(w, tr, code, msg)
	s.fail(w, code, msg)
}

// sealFailed is failReq's bookkeeping short of the response body.
func (s *Server) sealFailed(w http.ResponseWriter, tr *reqtrace.Trace, code int, msg string) {
	if tr != nil {
		w.Header().Set("X-Abmm-Trace-Id", tr.ID().String())
	}
	s.reqLog(tr).Warn("request failed", "code", code, "error", msg)
	o := reqtrace.OutcomeError
	if code == statusClientClosedRequest || code == http.StatusGatewayTimeout {
		o = reqtrace.OutcomeCanceled
	}
	s.finishTrace(tr, o, msg)
}

// failEncode answers a JSON request whose product has no JSON encoding
// (an entry overflowed to ±Inf or became NaN) with an explicit 500
// instead of an empty 200. The SLO sees the request's wall time like
// any completed one, and its product as an error beyond every bound.
func (s *Server) failEncode(w http.ResponseWriter, tr *reqtrace.Trace, elapsed time.Duration, bound float64, err error) {
	msg := "encode product: " + err.Error()
	s.slo.RecordLatency(elapsed)
	s.slo.ErrorSample(math.Inf(1), bound)
	s.sealFailed(w, tr, http.StatusInternalServerError, msg)
	s.count(http.StatusInternalServerError)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusInternalServerError)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{msg})
}

// failCtxReq maps a done context to its status: 504 for an expired
// deadline, 499 (client closed request) for a canceled one.
func (s *Server) failCtxReq(w http.ResponseWriter, tr *reqtrace.Trace, ctx context.Context) {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		s.canceledDeadline.Add(1)
		s.failReq(w, tr, http.StatusGatewayTimeout, "deadline exceeded")
		return
	}
	s.canceledClient.Add(1)
	s.failReq(w, tr, statusClientClosedRequest, "client closed request")
}

func (s *Server) handleMultiply(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST a multiplication request")
		return
	}
	start := time.Now()
	tr := s.startTrace(r)
	holdTrace(r, tr)
	ctx := reqtrace.NewContext(r.Context(), tr)
	if s.draining.Load() {
		s.failReq(w, tr, http.StatusServiceUnavailable, "server is draining")
		return
	}

	isJSON := mediaType(r.Header.Get("Content-Type")) == "application/json"
	body := http.MaxBytesReader(w, r.Body, 2*8*int64(s.cfg.MaxElems)+1024)
	var req *Request
	var err error
	dec := tr.StartSpan("decode")
	if isJSON {
		req, err = decodeJSONRequest(body, s.cfg.MaxElems)
	} else {
		req, err = DecodeRequest(body, s.cfg.MaxElems)
	}
	if err == nil {
		// Deferred, so every later return recycles the operands, and
		// none before the multiply has returned.
		defer req.Release()
		if !isJSON {
			err = frameEnd(body)
		}
	}
	dec.End()
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.failReq(w, tr, http.StatusRequestEntityTooLarge, err.Error())
		} else {
			s.failReq(w, tr, http.StatusBadRequest, err.Error())
		}
		return
	}
	// Wire-carried trace context (v2 frame) applies when the transport
	// brought none: frame consumers without HTTP header access still get
	// their trace continued here.
	if tr == nil && !req.TraceID.IsZero() {
		tr = reqtrace.NewRemote(req.TraceID, req.TraceSpan)
		holdTrace(r, tr)
		ctx = reqtrace.NewContext(ctx, tr)
	}
	m, k, n := req.A.Rows, req.A.Cols, req.B.Cols
	if tr != nil {
		tr.Eventf("alg=%s levels=%d shape=%dx%dx%d json=%t", req.Alg, req.Levels, m, k, n, isJSON)
	}

	mu, err := s.multiplier(req.Alg, req.Levels)
	if err != nil {
		s.failReq(w, tr, http.StatusNotFound, err.Error())
		return
	}

	// Deadline and cancellation: the request context already ends when
	// the client disconnects; layer the explicit or default timeout on
	// top. The same ctx gates queue wait and recursion.
	timeout, err := requestTimeout(r, s.cfg.DefaultTimeout)
	if err != nil {
		s.failReq(w, tr, http.StatusBadRequest, err.Error())
		return
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	admStart := time.Now()
	release, queued, err := s.gate.acquire(ctx)
	admWait := time.Since(admStart)
	if err != nil {
		adm := tr.ObserveSpan("admission", admStart, admWait)
		if queued {
			adm.Observe("queue", admStart, admWait)
		}
		switch {
		case errors.Is(err, errQueueFull), errors.Is(err, errQueueTimeout), errors.Is(err, errSLOShed):
			w.Header().Set("Retry-After", strconv.Itoa(s.gate.retryAfterSeconds()))
			s.failReq(w, tr, http.StatusTooManyRequests, err.Error())
		default:
			s.failCtxReq(w, tr, ctx)
		}
		return
	}
	adm := tr.ObserveSpan("admission", admStart, admWait)
	if queued {
		adm.Observe("queue", admStart, admWait)
	}
	defer release()
	queueNs := time.Since(start).Nanoseconds()
	s.queueWait.Observe(queueNs)

	resolve := tr.StartSpan("plan-resolve")
	plan := mu.Plan(m, k, n)
	resolve.End()

	// The product comes back dirty from the pool; the multiply
	// overwrites all of it, and a canceled product is never encoded.
	dst := &abmm.Matrix{}
	dst.Init(m, n, pool.Get(m*n))
	execStart := time.Now()
	exec := tr.StartSpan("exec")
	exec.AdoptPhases()
	err = plan.MultiplyIntoCtx(ctx, dst, req.A, req.B)
	// Deferred only once the multiply has returned (every worker done,
	// canceled or not): a panic inside it never recycles the product.
	defer pool.Put(dst.Data)
	exec.End()
	if err != nil {
		// A canceled or timed-out execution still spends the objective's
		// budget: record its wall time so the burn rate sees overload
		// even when nothing completes.
		s.slo.RecordLatency(time.Since(start))
		s.failCtxReq(w, tr, ctx)
		return
	}
	execNs := time.Since(execStart).Nanoseconds()

	h := w.Header()
	h.Set("X-Abmm-Alg", req.Alg)
	h.Set("X-Abmm-Plan", plan.Desc())
	h.Set("X-Abmm-Levels", strconv.Itoa(plan.Levels()))
	h.Set("X-Abmm-Queue-Ns", strconv.FormatInt(queueNs, 10))
	h.Set("X-Abmm-Exec-Ns", strconv.FormatInt(execNs, 10))
	h.Set("X-Abmm-Error-Bound", strconv.FormatFloat(plan.ErrorBound(), 'g', -1, 64))
	if tr != nil {
		h.Set("X-Abmm-Trace-Id", tr.ID().String())
		h.Set("traceparent", tr.Traceparent())
	}
	enc := tr.StartSpan("encode")
	if isJSON {
		resp := jsonResponse{
			C: toRows(dst), Alg: req.Alg, Plan: plan.Desc(), Levels: plan.Levels(),
			QueueNs: queueNs, ExecNs: execNs,
			ErrorBound: plan.ErrorBound(),
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(&resp); err != nil {
			enc.End()
			s.failEncode(w, tr, time.Since(start), plan.ErrorBound(), err)
			return
		}
		h.Set("Content-Type", "application/json")
		s.count(http.StatusOK)
		w.Write(buf.Bytes())
	} else {
		h.Set("Content-Type", ContentTypeBinary)
		h.Set("Content-Length", strconv.FormatInt(12+8*int64(m)*int64(n), 10))
		s.count(http.StatusOK)
		EncodeResponse(w, dst)
	}
	enc.End()
	elapsed := time.Since(start)
	s.reqDur.Observe(elapsed.Nanoseconds())
	s.slo.RecordLatency(elapsed)
	s.finishTrace(tr, reqtrace.OutcomeOK, "")
	if s.log.Enabled(ctx, slog.LevelInfo) {
		s.reqLog(tr).Info("multiply ok",
			"alg", req.Alg, "levels", plan.Levels(),
			"shape", fmt.Sprintf("%dx%dx%d", m, k, n),
			"queue_ns", queueNs, "exec_ns", execNs)
	}
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name               string  `json:"name"`
		AltBasis           bool    `json:"alt_basis"`
		LeadingCoefficient float64 `json:"leading_coefficient"`
		StabilityFactor    float64 `json:"stability_factor"`
	}
	names := make([]string, 0, len(s.algs))
	for name := range s.algs {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]entry, 0, len(names))
	for _, name := range names {
		alg, err := abmm.Lookup(name)
		if err != nil {
			continue
		}
		info := abmm.InfoFor(alg)
		out = append(out, entry{
			Name: name, AltBasis: info.AltBasis,
			LeadingCoefficient: info.LeadingCoefficient,
			StabilityFactor:    info.StabilityFactor,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// handleHealth is liveness: 200 while the process serves, 503 once it
// drains. The JSON body tells probes and humans *why* — drain state,
// uptime, and current load — instead of a bare status line.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	draining := s.draining.Load()
	status := "ok"
	if draining {
		status = "draining"
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(struct {
		Status        string  `json:"status"`
		Draining      bool    `json:"draining"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		InFlight      int64   `json:"in_flight"`
		Queued        int64   `json:"queued"`
	}{
		Status:        status,
		Draining:      draining,
		UptimeSeconds: time.Since(s.started).Seconds(),
		InFlight:      s.gate.inFlight.Load(),
		Queued:        s.gate.queued.Load(),
	})
}

// handleReady is readiness: 503 while draining or while the SLO engine
// reports an objective burning in both windows, 200 otherwise. The body
// carries the full burn-rate status so an operator sees which objective
// tripped and how hard.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	draining := s.draining.Load()
	st := s.slo.Status()
	ready := st.Ready && !draining
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(struct {
		Ready    bool          `json:"ready"`
		Draining bool          `json:"draining"`
		SLO      obs.SLOStatus `json:"slo"`
	}{Ready: ready, Draining: draining, SLO: st})
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, `abmm serving layer

POST /v1/multiply     multiply two matrices (binary frame or JSON)
GET  /v1/algorithms   served algorithm catalog
GET  /healthz         liveness + drain state (JSON)
GET  /readyz          SLO-driven readiness (JSON burn-rate status)
GET  /metrics         Prometheus text format (engine + server families)
GET  /debug/requests  recent request traces (HTML tree or ?format=json)
GET  /debug/plans     per-plan latency/GFLOPS/error attribution
GET  /debug/vars      expvar JSON
GET  /debug/pprof     pprof profiles
`)
}

// fail writes a plain-text error response and counts the status.
func (s *Server) fail(w http.ResponseWriter, code int, msg string) {
	s.count(code)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(code)
	io.WriteString(w, msg+"\n")
}

func (s *Server) count(code int) {
	if c, ok := s.codes[code]; ok {
		c.Add(1)
		return
	}
	s.codesOther.Add(1)
}

// writeMetrics appends the server's own metric families to a /metrics
// scrape, after the engine families (see abmm.MountStats).
func (s *Server) writeMetrics(w io.Writer) {
	requests := obs.WriteFamily(w, "abmm_server_requests_total", "counter", "Multiplication requests by response code.")
	for _, code := range trackedCodes {
		requests.Int(s.codes[code].Load(), "code", strconv.Itoa(code))
	}
	requests.Int(s.codesOther.Load(), "code", "other")

	rejected := obs.WriteFamily(w, "abmm_server_rejected_total", "counter", "Requests shed by admission control.")
	rejected.Int(s.gate.rejectedFull.Load(), "reason", "queue_full")
	rejected.Int(s.gate.rejectedTimeout.Load(), "reason", "queue_timeout")
	rejected.Int(s.gate.rejectedShed.Load(), "reason", "slo_shed")

	canceled := obs.WriteFamily(w, "abmm_server_canceled_total", "counter", "Requests abandoned mid-flight.")
	canceled.Int(s.canceledDeadline.Load(), "cause", "deadline")
	canceled.Int(s.canceledClient.Load(), "cause", "client")

	obs.WriteFamily(w, "abmm_server_admitted_total", "counter", "Requests that acquired an execution slot.").Int(s.gate.admitted.Load())
	obs.WriteFamily(w, "abmm_server_panics_total", "counter", "Handler panics caught by the isolation wrapper.").Int(s.panics.Load())
	obs.WriteFamily(w, "abmm_server_in_flight", "gauge", "Multiplications currently executing.").Int(s.gate.inFlight.Load())
	obs.WriteFamily(w, "abmm_server_queue_depth", "gauge", "Requests currently waiting for an execution slot.").Int(s.gate.queued.Load())
	obs.WriteFamily(w, "abmm_server_queue_depth_peak", "gauge", "High-water mark of the admission queue.").Int(s.gate.queuedPeak.Load())
	obs.WriteFamily(w, "abmm_server_queue_capacity", "gauge", "Admission queue capacity (Config.MaxQueued).").Int(int64(s.cfg.MaxQueued))

	traced := obs.WriteFamily(w, "abmm_server_traced_total", "counter", "Completed request traces filed per /debug/requests ring.")
	for b := reqtrace.Bucket(0); b < reqtrace.NumBuckets; b++ {
		traced.Int(s.traces.Total(b), "bucket", b.String())
	}
	obs.WriteFamily(w, "abmm_server_draining", "gauge", "1 while the server refuses new work to drain.").Int(b2i(s.draining.Load()))

	obs.WriteFamily(w, "abmm_server_request_duration_seconds", "histogram",
		"Full request wall time (parse, queue, execute, encode) in seconds.").Hist(s.reqDur.Snapshot(), 1e-9)
	obs.WriteFamily(w, "abmm_server_queue_wait_seconds", "histogram",
		"Admission wait (parse to execution slot) in seconds.").Hist(s.queueWait.Snapshot(), 1e-9)

	// Plan-cache counters summed across the shared multipliers.
	var cs abmm.CacheStats
	s.musMu.RLock()
	for _, mu := range s.mus {
		st := mu.Stats()
		cs.Hits += st.Hits
		cs.Misses += st.Misses
		cs.Evictions += st.Evictions
		cs.Plans += st.Plans
		cs.ArenaBytes += st.ArenaBytes
	}
	s.musMu.RUnlock()
	obs.WriteFamily(w, "abmm_plan_cache_hits_total", "counter", "Plan-cache lookups served by a cached plan, all multipliers.").Int(int64(cs.Hits))
	obs.WriteFamily(w, "abmm_plan_cache_misses_total", "counter", "Plan-cache lookups that compiled a new plan, all multipliers.").Int(int64(cs.Misses))
	obs.WriteFamily(w, "abmm_plan_cache_evictions_total", "counter", "Plans dropped by the LRU policy, all multipliers.").Int(int64(cs.Evictions))
	obs.WriteFamily(w, "abmm_plan_cache_plans", "gauge", "Plans currently cached across all multipliers.").Int(int64(cs.Plans))
	obs.WriteFamily(w, "abmm_plan_cache_arena_bytes", "gauge", "Summed per-plan high-water workspace bytes retained by the caches.").Int(cs.ArenaBytes)

	// SLO burn state (a disabled engine reports ready=1, shed=0), then
	// the per-plan attribution families.
	st := s.slo.Status()
	obs.WriteFamily(w, "abmm_slo_enabled", "gauge", "1 when latency/error objectives are configured.").Int(b2i(st.Enabled))
	obs.WriteFamily(w, "abmm_slo_ready", "gauge", "1 while every objective is within budget (what /readyz reports, drain aside).").Int(b2i(st.Ready))
	obs.WriteFamily(w, "abmm_slo_shed_probability", "gauge", "Admission shed hint from the short-window burn rate.").Float(st.ShedProbability)
	burn := obs.WriteFamily(w, "abmm_slo_burn_rate", "gauge", "Error-budget burn rate per objective and window.")
	burn.Float(st.Latency.Long.Burn, "objective", "latency", "window", "long")
	burn.Float(st.Latency.Short.Burn, "objective", "latency", "window", "short")
	burn.Float(st.Errors.Long.Burn, "objective", "errors", "window", "long")
	burn.Float(st.Errors.Short.Burn, "objective", "errors", "window", "short")

	s.plans.WritePlanMetrics(w)

	// Tuner families, when a metrics-capable tuner is configured (the
	// interface assertion keeps server free of an internal/tune import —
	// the dependency arrow stays tune→core, never server→tune).
	if tm, ok := s.cfg.Tuner.(interface{ WriteMetrics(io.Writer) }); ok {
		tm.WriteMetrics(w)
	}
}

// b2i renders a boolean gauge as 0 or 1.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// decodeJSONRequest parses the JSON echo mode and validates it against
// the same element caps as the binary frame.
func decodeJSONRequest(r io.Reader, maxElems int) (*Request, error) {
	var jr jsonRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jr); err != nil {
		return nil, fmt.Errorf("invalid JSON request: %w", err)
	}
	// A body is one request object: a second value or trailing garbage
	// is refused, not ignored.
	if tok, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = fmt.Errorf("unexpected %v", tok)
		}
		return nil, fmt.Errorf("invalid JSON request: after the object: %w", err)
	}
	m := len(jr.A)
	if m == 0 || len(jr.A[0]) == 0 {
		return nil, errors.New("invalid JSON request: empty matrix a")
	}
	k := len(jr.A[0])
	if len(jr.B) != k || len(jr.B[0]) == 0 {
		return nil, fmt.Errorf("invalid JSON request: b must have %d rows", k)
	}
	n := len(jr.B[0])
	if err := checkShape(m, k, n, maxElems); err != nil {
		return nil, err
	}
	for _, row := range jr.A {
		if len(row) != k {
			return nil, errors.New("invalid JSON request: ragged rows in a")
		}
	}
	for _, row := range jr.B {
		if len(row) != n {
			return nil, errors.New("invalid JSON request: ragged rows in b")
		}
	}
	levels := abmm.AutoLevels
	if jr.Levels != nil {
		levels = *jr.Levels
	}
	return &Request{
		Alg:    jr.Alg,
		Levels: levels,
		A:      abmm.FromRows(jr.A),
		B:      abmm.FromRows(jr.B),
	}, nil
}

func toRows(m *abmm.Matrix) [][]float64 {
	rows := make([][]float64, m.Rows)
	for i := range rows {
		rows[i] = append([]float64(nil), m.Row(i)...)
	}
	return rows
}

// requestTimeout resolves the execution deadline for one request: the
// ?timeout= query parameter, then the X-Abmm-Timeout header, then the
// server default. Zero means no explicit deadline.
func requestTimeout(r *http.Request, def time.Duration) (time.Duration, error) {
	raw := r.URL.Query().Get("timeout")
	if raw == "" {
		raw = r.Header.Get("X-Abmm-Timeout")
	}
	if raw == "" {
		return def, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("invalid timeout %q", raw)
	}
	return d, nil
}

// mediaType strips Content-Type parameters (charset etc.) without
// pulling in mime's error handling for the empty case.
func mediaType(ct string) string {
	for i := 0; i < len(ct); i++ {
		if ct[i] == ';' {
			ct = ct[:i]
			break
		}
	}
	for len(ct) > 0 && (ct[len(ct)-1] == ' ' || ct[len(ct)-1] == '\t') {
		ct = ct[:len(ct)-1]
	}
	return ct
}
