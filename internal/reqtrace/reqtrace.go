// Package reqtrace is the request-scoped tracing layer of the serving
// stack, in the spirit of golang.org/x/net/trace: where internal/obs
// aggregates globally (histograms and phase totals that say *that* p99
// regressed), a Trace attributes one request's latency to its own span
// tree (*which* request, *which* phase, *why*) — admission wait, queue
// wait, plan resolution, and the engine's Algorithm 1 pipeline phases.
//
// The pieces:
//
//   - Trace, a context-carried record with a 128-bit ID (W3C
//     trace-context compatible), a fixed-capacity span tree, timestamped
//     events, and lock-free aggregate annotations. A Trace implements
//     obs.Recorder, so the execution layers report engine phases through
//     the same seam the Collector uses — span names reuse the obs phase
//     taxonomy (obs.Phase.String), so traces and Collector phase totals
//     cannot drift apart. All methods tolerate a nil *Trace receiver and
//     the zero Span, so untraced requests cost one context lookup and
//     nothing else: the warm MultiplyInto path keeps its 0 allocs/op
//     guarantee when no trace is attached (pinned by
//     TestMultiplyIntoCtxZeroAllocUntraced).
//
//   - Store, fixed-size ring buffers of completed traces bucketed by
//     outcome — recent, slow (by latency threshold), errored, canceled —
//     with an HTTP inspector at /debug/requests (http.go) rendering both
//     an HTML tree view and JSON (schema pinned by a golden test).
//
//   - W3C trace-context interop: ParseTraceparent/FormatTraceparent
//     handle the `traceparent` header, the one carrier of a caller's
//     trace context, so trace IDs propagate across HTTP hops (client →
//     abmmd, and abmmd → abmmd once the distributed multiply lands).
//     The binary frame carries only the multiplication.
//
// Annotation on the hot path is lock-free: span slots are claimed with
// one atomic increment into a pre-sized array, aggregate counters are
// atomics, and nothing allocates — kernel worker goroutines report
// pack/kernel sub-phases concurrently through PhaseDone. Completed
// traces are published to a Store ring under a mutex (cold, once per
// request).
package reqtrace

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"abmm/internal/obs"
)

// ID is a 128-bit trace identifier, the W3C trace-context trace-id.
type ID struct{ Hi, Lo uint64 }

// IsZero reports whether the ID is the invalid all-zero identifier.
func (id ID) IsZero() bool { return id.Hi == 0 && id.Lo == 0 }

// String renders the ID as 32 lowercase hex digits, the trace-id field
// of a traceparent header.
func (id ID) String() string {
	var b [32]byte
	hex16(b[:16], id.Hi)
	hex16(b[16:], id.Lo)
	return string(b[:])
}

func hex16(dst []byte, v uint64) {
	const digits = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		dst[i] = digits[v&0xf]
		v >>= 4
	}
}

// ParseID parses 32 lowercase hex digits into an ID, rejecting the
// all-zero identifier (both per the W3C trace-context grammar).
func ParseID(s string) (ID, error) {
	if len(s) != 32 {
		return ID{}, fmt.Errorf("reqtrace: trace id %q is not 32 hex digits", s)
	}
	hi, ok1 := parseHex16(s[:16])
	lo, ok2 := parseHex16(s[16:])
	if !ok1 || !ok2 {
		return ID{}, fmt.Errorf("reqtrace: trace id %q is not 32 lowercase hex digits", s)
	}
	id := ID{Hi: hi, Lo: lo}
	if id.IsZero() {
		return ID{}, fmt.Errorf("reqtrace: all-zero trace id")
	}
	return id, nil
}

// parseHex16 parses exactly 16 lowercase hex digits.
func parseHex16(s string) (uint64, bool) {
	var v uint64
	for i := 0; i < 16; i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return v, true
}

// NewID returns a random non-zero trace ID.
func NewID() ID {
	for {
		id := ID{Hi: rand.Uint64(), Lo: rand.Uint64()}
		if !id.IsZero() {
			return id
		}
	}
}

func newSpanID() uint64 {
	for {
		if v := rand.Uint64(); v != 0 {
			return v
		}
	}
}

// FormatTraceparent renders a W3C traceparent header value (version 00,
// sampled flag set) for a trace and the span that is the current parent
// on this hop.
func FormatTraceparent(id ID, span uint64) string {
	var b [55]byte
	copy(b[:3], "00-")
	hex16(b[3:19], id.Hi)
	hex16(b[19:35], id.Lo)
	b[35] = '-'
	hex16(b[36:52], span)
	copy(b[52:], "-01")
	return string(b[:])
}

// ParseTraceparent parses a W3C traceparent header value. Per the spec
// it accepts versions other than 00 (ff excluded) as long as the
// version-00 prefix parses, rejects all-zero trace and parent IDs, and
// ignores trailing future fields after the flags.
func ParseTraceparent(s string) (id ID, span uint64, ok bool) {
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return ID{}, 0, false
	}
	if len(s) > 55 && s[55] != '-' {
		return ID{}, 0, false
	}
	ver, vok := parseHex2(s[:2])
	if !vok || ver == 0xff {
		return ID{}, 0, false
	}
	if ver == 0 && len(s) != 55 {
		return ID{}, 0, false
	}
	tid, err := ParseID(s[3:35])
	if err != nil {
		return ID{}, 0, false
	}
	span, sok := parseHex16(s[36:52])
	if !sok || span == 0 {
		return ID{}, 0, false
	}
	if _, fok := parseHex2(s[53:55]); !fok {
		return ID{}, 0, false
	}
	return tid, span, true
}

// parseHex2 parses exactly 2 lowercase hex digits.
func parseHex2(s string) (uint8, bool) {
	var v uint8
	for i := 0; i < 2; i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | (c - '0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | (c - 'a' + 10)
		default:
			return 0, false
		}
	}
	return v, true
}

// Outcome classifies a completed trace for ring bucketing.
type Outcome uint8

const (
	// OutcomeOK is a request that returned its product.
	OutcomeOK Outcome = iota
	// OutcomeError is a request that failed (4xx/5xx, panic, malformed
	// frame).
	OutcomeError
	// OutcomeCanceled is a request abandoned mid-flight: client
	// disconnect or deadline expiry.
	OutcomeCanceled
)

var outcomeNames = [...]string{"ok", "error", "canceled"}

// String returns "ok", "error", or "canceled".
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "unknown"
}

// MaxSpans bounds a trace's span tree. Server-side bookkeeping plus the
// engine's pipeline phases use ~12; the headroom absorbs retries and
// future phases. Spans beyond the cap are counted, not stored.
const MaxSpans = 48

// MaxEvents bounds a trace's timestamped annotation log.
const MaxEvents = 16

type span struct {
	name    string
	parent  int32
	startNs int64
	endNs   int64
}

type event struct {
	atNs int64
	msg  string
}

// Trace is one request's record: identity, span tree, events, and
// lock-free aggregate annotations. Create with New or NewRemote, carry
// with NewContext/FromContext, seal with Finish, publish with
// Store.Add. All methods are safe on a nil receiver (no-ops), so
// untraced code paths need no branches.
type Trace struct {
	id     ID
	span   uint64 // this hop's span id, emitted in outbound traceparent
	parent uint64 // remote parent span id (0 when locally originated)
	remote bool
	start  time.Time
	now    func() time.Time // nil = time.Now; test hook for golden output

	nspans       atomic.Int32
	spans        [MaxSpans]span
	droppedSpans atomic.Int64
	// phaseParent is the span index recorder-fed engine phases attach
	// to; -1 parents them at the root (see Span.AdoptPhases).
	phaseParent atomic.Int32

	nevents       atomic.Int32
	events        [MaxEvents]event
	droppedEvents atomic.Int64

	// Aggregated engine annotations: the nested pack/kernel sub-phases
	// arrive once per base-case call — thousands per multiply — so they
	// are summed, not stored as spans.
	packCount, packNs     atomic.Int64
	kernelCount, kernelNs atomic.Int64
	arenaRequested        atomic.Int64
	arenaReused           atomic.Int64

	// Set once by MulDone on the request goroutine.
	mulInfo obs.MulInfo
	hasMul  bool

	done    atomic.Bool
	totalNs int64
	outcome Outcome
	errMsg  string
}

// New returns a locally-originated trace with a fresh random ID,
// started now.
func New() *Trace {
	return newTrace(NewID(), 0, false)
}

// NewRemote returns a trace continuing a remote trace context parsed
// from a traceparent header: it keeps the caller's 128-bit ID, records
// the caller's span as the parent, and generates a fresh span ID for
// this hop.
func NewRemote(id ID, parentSpan uint64) *Trace {
	if id.IsZero() {
		return New()
	}
	return newTrace(id, parentSpan, true)
}

func newTrace(id ID, parentSpan uint64, remote bool) *Trace {
	t := &Trace{id: id, span: newSpanID(), parent: parentSpan, remote: remote, start: time.Now()}
	t.phaseParent.Store(-1)
	return t
}

// nowNs returns the monotonic offset from the trace start.
func (t *Trace) nowNs() int64 {
	if t.now != nil {
		return t.now().Sub(t.start).Nanoseconds()
	}
	return time.Since(t.start).Nanoseconds()
}

// ID returns the trace's 128-bit identifier.
func (t *Trace) ID() ID {
	if t == nil {
		return ID{}
	}
	return t.id
}

// Remote reports whether the trace ID arrived from the client rather
// than being generated here.
func (t *Trace) Remote() bool { return t != nil && t.remote }

// ParentSpan returns the remote parent span ID (0 when locally
// originated).
func (t *Trace) ParentSpan() uint64 {
	if t == nil {
		return 0
	}
	return t.parent
}

// Traceparent renders the outbound traceparent header value for this
// hop: the trace's ID with this hop's span.
func (t *Trace) Traceparent() string {
	if t == nil {
		return ""
	}
	return FormatTraceparent(t.id, t.span)
}

// Start returns the trace's start time.
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Span is a handle to one open (or retroactively recorded) span; the
// zero Span is a no-op, so dropped spans and nil traces need no checks
// at call sites.
type Span struct {
	t   *Trace
	idx int32
}

// StartSpan opens a root-level span.
func (t *Trace) StartSpan(name string) Span {
	return t.spanAt(name, -1, t.liveNs(), open)
}

// StartChild opens a span nested under s.
func (s Span) StartChild(name string) Span {
	if s.t == nil {
		return Span{}
	}
	return s.t.spanAt(name, s.idx, s.t.nowNs(), open)
}

// ObserveSpan records an already-completed root-level span from its
// wall-clock start and duration — for intervals measured before the
// decision to attribute them (e.g. the admission wait).
func (t *Trace) ObserveSpan(name string, start time.Time, d time.Duration) Span {
	if t == nil {
		return Span{}
	}
	s := start.Sub(t.start).Nanoseconds()
	return t.spanAt(name, -1, s, s+d.Nanoseconds())
}

// Observe records an already-completed span as a child of s.
func (s Span) Observe(name string, start time.Time, d time.Duration) Span {
	if s.t == nil {
		return Span{}
	}
	o := start.Sub(s.t.start).Nanoseconds()
	return s.t.spanAt(name, s.idx, o, o+d.Nanoseconds())
}

// open marks a span whose End has not run yet.
const open = int64(-1)

// liveNs is nowNs on a possibly-nil trace.
func (t *Trace) liveNs() int64 {
	if t == nil {
		return 0
	}
	return t.nowNs()
}

// spanAt claims a span slot lock-free: one atomic increment reserves
// the index, the slot is then exclusively owned by the caller. Past
// MaxSpans the span is counted as dropped and the zero Span returned.
//
//abmm:hotpath
func (t *Trace) spanAt(name string, parent int32, startNs, endNs int64) Span {
	if t == nil {
		return Span{}
	}
	i := t.nspans.Add(1) - 1
	if i >= MaxSpans {
		t.droppedSpans.Add(1)
		return Span{}
	}
	sp := &t.spans[i]
	sp.name = name
	sp.parent = parent
	sp.startNs = startNs
	sp.endNs = endNs
	return Span{t: t, idx: i}
}

// End closes the span. Closing the zero Span (nil trace or a dropped
// span) is a no-op; closing an Observe-recorded span keeps its
// recorded end.
func (s Span) End() {
	if s.t == nil {
		return
	}
	sp := &s.t.spans[s.idx]
	if sp.endNs == open {
		sp.endNs = s.t.nowNs()
	}
	// Ending the phase anchor restores root parenting for any
	// straggling recorder-fed spans.
	s.t.phaseParent.CompareAndSwap(s.idx, -1)
}

// AdoptPhases makes s the parent of subsequently recorder-fed engine
// phase spans (PhaseDone), so pad/forward/bilinear/inverse/crop nest
// under the span that wraps plan execution.
func (s Span) AdoptPhases() {
	if s.t == nil {
		return
	}
	s.t.phaseParent.Store(s.idx)
}

// Eventf appends a timestamped annotation (overflow beyond MaxEvents is
// counted, not stored). Allocates; call it only on traced paths.
func (t *Trace) Eventf(format string, args ...any) {
	if t == nil {
		return
	}
	i := t.nevents.Add(1) - 1
	if i >= MaxEvents {
		t.droppedEvents.Add(1)
		return
	}
	t.events[i] = event{atNs: t.nowNs(), msg: fmt.Sprintf(format, args...)}
}

// Finish seals the trace with an outcome and an optional error message.
// The first call wins and returns true (publish to a Store then);
// later calls — e.g. a panic handler racing a deferred finish — are
// no-ops returning false.
func (t *Trace) Finish(o Outcome, errMsg string) bool {
	if t == nil || !t.done.CompareAndSwap(false, true) {
		return false
	}
	t.totalNs = t.nowNs()
	t.outcome = o
	t.errMsg = errMsg
	return true
}

// Duration returns the sealed trace's total wall time (0 before
// Finish).
func (t *Trace) Duration() time.Duration {
	if t == nil || !t.done.Load() {
		return 0
	}
	return time.Duration(t.totalNs)
}

// Outcome returns the sealed trace's outcome.
func (t *Trace) Outcome() Outcome {
	if t == nil {
		return OutcomeOK
	}
	return t.outcome
}

// Err returns the sealed trace's error message ("" on success).
func (t *Trace) Err() string {
	if t == nil {
		return ""
	}
	return t.errMsg
}

// PhaseDone implements obs.Recorder: pipeline phases become spans
// (retroactively, parented at the AdoptPhases anchor), the nested
// pack/kernel sub-phases — one per base-case call, reported
// concurrently by kernel workers — are summed into aggregate counters.
//
//abmm:hotpath
func (t *Trace) PhaseDone(p obs.Phase, d time.Duration) {
	if t == nil {
		return
	}
	switch p {
	case obs.PhasePack:
		t.packCount.Add(1)
		t.packNs.Add(int64(d))
		return
	case obs.PhaseKernel:
		t.kernelCount.Add(1)
		t.kernelNs.Add(int64(d))
		return
	}
	if int(p) >= obs.NumPipelinePhases {
		return
	}
	end := t.nowNs()
	t.spanAt(p.String(), t.phaseParent.Load(), end-int64(d), end)
}

// MulDone implements obs.Recorder, retaining the shape/depth/flop
// summary for the inspector.
//
//abmm:hotpath
func (t *Trace) MulDone(info obs.MulInfo, total time.Duration) {
	if t == nil {
		return
	}
	t.mulInfo = info
	t.hasMul = true
}

// ArenaRelease implements obs.Recorder.
//
//abmm:hotpath
func (t *Trace) ArenaRelease(u obs.ArenaUsage) {
	if t == nil {
		return
	}
	t.arenaRequested.Add(u.RequestedBytes)
	t.arenaReused.Add(u.ReusedBytes)
}

// ErrorSample implements obs.Recorder as a no-op: sampled accuracy is
// aggregated per plan and process, not per request.
func (t *Trace) ErrorSample(measured, bound float64) {}

type ctxKey struct{}

// NewContext returns a context carrying t; a nil t returns ctx
// unchanged.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the context's trace, or nil. One value lookup, no
// allocation — the untraced hot path's entire cost.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// SpanSnapshot is one span in a Snapshot; Parent indexes Spans (-1 for
// root-level spans).
type SpanSnapshot struct {
	Name    string `json:"name"`
	Parent  int32  `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// EventSnapshot is one timestamped annotation in a Snapshot.
type EventSnapshot struct {
	AtNs int64  `json:"at_ns"`
	Msg  string `json:"msg"`
}

// EngineSnapshot aggregates the engine annotations of a Snapshot.
type EngineSnapshot struct {
	PackCalls           int64 `json:"pack_calls"`
	PackNs              int64 `json:"pack_ns"`
	KernelCalls         int64 `json:"kernel_calls"`
	KernelNs            int64 `json:"kernel_ns"`
	ArenaRequestedBytes int64 `json:"arena_requested_bytes"`
	ArenaReusedBytes    int64 `json:"arena_reused_bytes"`
}

// Snapshot is the export form of a completed trace — the JSON schema
// served by /debug/requests, pinned by a golden test (extend it, don't
// rename fields).
type Snapshot struct {
	ID         string          `json:"id"`
	Remote     bool            `json:"remote"`
	ParentSpan string          `json:"parent_span,omitempty"`
	Start      time.Time       `json:"start"`
	DurationNs int64           `json:"duration_ns"`
	Outcome    string          `json:"outcome"`
	Error      string          `json:"error,omitempty"`
	Shape      string          `json:"shape,omitempty"`
	Levels     int             `json:"levels,omitempty"`
	Spans      []SpanSnapshot  `json:"spans"`
	Dropped    int64           `json:"dropped_spans,omitempty"`
	Events     []EventSnapshot `json:"events,omitempty"`
	Engine     EngineSnapshot  `json:"engine"`
}

// Snapshot exports the trace. Call only on sealed traces (Store rings
// hold only those); an unfinished trace snapshots with zero duration.
func (t *Trace) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	s := Snapshot{
		ID:         t.id.String(),
		Remote:     t.remote,
		Start:      t.start,
		DurationNs: t.totalNs,
		Outcome:    t.outcome.String(),
		Error:      t.errMsg,
		Dropped:    t.droppedSpans.Load(),
		Engine: EngineSnapshot{
			PackCalls:           t.packCount.Load(),
			PackNs:              t.packNs.Load(),
			KernelCalls:         t.kernelCount.Load(),
			KernelNs:            t.kernelNs.Load(),
			ArenaRequestedBytes: t.arenaRequested.Load(),
			ArenaReusedBytes:    t.arenaReused.Load(),
		},
	}
	if t.parent != 0 {
		var b [16]byte
		hex16(b[:], t.parent)
		s.ParentSpan = string(b[:])
	}
	if t.hasMul {
		s.Shape = fmt.Sprintf("%dx%dx%d", t.mulInfo.M, t.mulInfo.K, t.mulInfo.N)
		s.Levels = t.mulInfo.Levels
	}
	n := int(t.nspans.Load())
	if n > MaxSpans {
		n = MaxSpans
	}
	s.Spans = make([]SpanSnapshot, n)
	for i := 0; i < n; i++ {
		sp := &t.spans[i]
		end := sp.endNs
		if end == open {
			end = t.totalNs
		}
		s.Spans[i] = SpanSnapshot{Name: sp.name, Parent: sp.parent, StartNs: sp.startNs, EndNs: end}
	}
	ne := int(t.nevents.Load())
	if ne > MaxEvents {
		ne = MaxEvents
	}
	if ne > 0 {
		s.Events = make([]EventSnapshot, ne)
		for i := 0; i < ne; i++ {
			s.Events[i] = EventSnapshot{AtNs: t.events[i].atNs, Msg: t.events[i].msg}
		}
	}
	return s
}
