package reqtrace

// The /debug/requests inspector, stdlib-only. One handler serves two
// renderings of the Store's rings:
//
//	HTML (default)    per-bucket sections, one <details> element per
//	                  trace with an indented span-tree <pre>
//	JSON (?format=json or Accept: application/json)
//	                  the StorePage schema, golden-pinned by
//	                  testdata/requests.golden.json — extend it, don't
//	                  rename fields
//
// Mount it next to /metrics via obs.MountDebug so the whole
// observability surface shares one port.

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"sort"
	"strings"
	"time"
)

// BucketPage is one ring's JSON export: its live contents plus the
// lifetime total (which keeps counting after the ring wraps).
type BucketPage struct {
	Name   string     `json:"name"`
	Stored int        `json:"stored"`
	Total  int64      `json:"total"`
	Traces []Snapshot `json:"traces"`
}

// StorePage is the JSON document served at /debug/requests.
type StorePage struct {
	SlowThresholdNs int64        `json:"slow_threshold_ns"`
	Buckets         []BucketPage `json:"buckets"`
}

// Page exports the store's current state.
func (s *Store) Page() StorePage {
	p := StorePage{SlowThresholdNs: int64(s.SlowThreshold())}
	if s == nil {
		return p
	}
	p.Buckets = make([]BucketPage, NumBuckets)
	for b := Bucket(0); b < NumBuckets; b++ {
		traces := s.Traces(b)
		bp := BucketPage{
			Name:   b.String(),
			Stored: len(traces),
			Total:  s.Total(b),
			Traces: make([]Snapshot, len(traces)),
		}
		for i, t := range traces {
			bp.Traces[i] = t.Snapshot()
		}
		p.Buckets[int(b)] = bp
	}
	return p
}

// Handler serves the inspector. GET only; the format is chosen by
// ?format=json / ?format=html, else the Accept header, defaulting to
// HTML.
func (s *Store) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if idStr := r.URL.Query().Get("id"); idStr != "" {
			s.serveTrace(w, r, idStr)
			return
		}
		if wantJSON(r) {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(s.Page())
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		writeHTML(w, s.Page())
	})
}

// serveTrace handles ?id=<32 hex digits>: the single-trace lookup the
// /debug/plans exemplar links target. 404 when the trace has aged out
// of every ring (rings are bounded; exemplars can outlive them).
func (s *Store) serveTrace(w http.ResponseWriter, r *http.Request, idStr string) {
	id, err := ParseID(idStr)
	if err != nil {
		http.Error(w, "bad trace id: "+err.Error(), http.StatusBadRequest)
		return
	}
	t := s.Lookup(id)
	if t == nil {
		http.Error(w, "trace not found (aged out of the rings?)", http.StatusNotFound)
		return
	}
	snap := t.Snapshot()
	if wantJSON(r) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(snap)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<!DOCTYPE html>
<html><head><title>abmm trace %s</title><style>
body{font-family:sans-serif;margin:1.5em}
pre{font-family:monospace;margin:.3em 0 .8em;line-height:1.35}
summary{cursor:pointer;font-family:monospace}
.ok{color:#176e2c}.error{color:#b3261e}.canceled{color:#8a6d00}
.meta{color:#555;font-size:.9em}
</style></head><body>
<h1>abmm trace</h1>
<p class=meta><a href="/debug/requests">all requests</a> · <a href="?id=%s&amp;format=json">json</a></p>
`, html.EscapeString(snap.ID), html.EscapeString(snap.ID))
	writeTraceHTML(w, snap)
	fmt.Fprint(w, "</body></html>\n")
}

func wantJSON(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "json":
		return true
	case "html":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "application/json") && !strings.Contains(accept, "text/html")
}

// writeHTML renders the page as a self-contained document: no scripts,
// no external assets, so it works from curl --output or an air-gapped
// browser.
func writeHTML(w http.ResponseWriter, p StorePage) {
	fmt.Fprint(w, `<!DOCTYPE html>
<html><head><title>abmm /debug/requests</title><style>
body{font-family:sans-serif;margin:1.5em}
pre{font-family:monospace;margin:.3em 0 .8em;line-height:1.35}
summary{cursor:pointer;font-family:monospace}
.ok{color:#176e2c}.error{color:#b3261e}.canceled{color:#8a6d00}
h2{border-bottom:1px solid #ccc;padding-bottom:.2em}
.meta{color:#555;font-size:.9em}
</style></head><body>
<h1>abmm request traces</h1>
`)
	fmt.Fprintf(w, "<p class=meta>slow threshold: %s · <a href=\"?format=json\">json</a></p>\n",
		html.EscapeString(time.Duration(p.SlowThresholdNs).String()))
	for _, b := range p.Buckets {
		fmt.Fprintf(w, "<h2>%s <span class=meta>(%d stored, %d total)</span></h2>\n",
			html.EscapeString(b.Name), b.Stored, b.Total)
		if len(b.Traces) == 0 {
			fmt.Fprint(w, "<p class=meta>no traces recorded</p>\n")
			continue
		}
		for _, t := range b.Traces {
			writeTraceHTML(w, t)
		}
	}
	fmt.Fprint(w, "</body></html>\n")
}

func writeTraceHTML(w http.ResponseWriter, t Snapshot) {
	head := fmt.Sprintf("%s  %s  <span class=%s>%s</span>", html.EscapeString(t.ID),
		html.EscapeString(fdur(t.DurationNs)), t.Outcome, html.EscapeString(t.Outcome))
	if t.Shape != "" {
		head += "  " + html.EscapeString(t.Shape)
	}
	if t.Remote {
		head += "  <span class=meta>remote</span>"
	}
	fmt.Fprintf(w, "<details><summary>%s</summary>\n<pre>", head)
	fmt.Fprintf(w, "start    %s\n", html.EscapeString(t.Start.Format(time.RFC3339Nano)))
	if t.ParentSpan != "" {
		fmt.Fprintf(w, "parent   %s\n", html.EscapeString(t.ParentSpan))
	}
	if t.Error != "" {
		fmt.Fprintf(w, "error    %s\n", html.EscapeString(t.Error))
	}
	if t.Levels != 0 {
		fmt.Fprintf(w, "levels   %d\n", t.Levels)
	}
	writeSpanTree(w, t.Spans)
	if t.Dropped > 0 {
		fmt.Fprintf(w, "… %d spans dropped\n", t.Dropped)
	}
	for _, e := range t.Events {
		fmt.Fprintf(w, "@%-11s %s\n", fdur(e.AtNs), html.EscapeString(e.Msg))
	}
	eng := t.Engine
	if eng.KernelCalls > 0 || eng.PackCalls > 0 {
		fmt.Fprintf(w, "engine   pack %d calls %s · kernel %d calls %s\n",
			eng.PackCalls, fdur(eng.PackNs), eng.KernelCalls, fdur(eng.KernelNs))
	}
	if eng.ArenaRequestedBytes > 0 {
		fmt.Fprintf(w, "arena    %d B requested, %d B reused\n", eng.ArenaRequestedBytes, eng.ArenaReusedBytes)
	}
	fmt.Fprint(w, "</pre></details>\n")
}

// writeSpanTree renders the span forest as an indented listing,
// children under parents, siblings in start order.
func writeSpanTree(w http.ResponseWriter, spans []SpanSnapshot) {
	children := make(map[int32][]int)
	for i := range spans {
		children[spans[i].Parent] = append(children[spans[i].Parent], i)
	}
	for _, kids := range children {
		sort.Slice(kids, func(a, b int) bool {
			if spans[kids[a]].StartNs != spans[kids[b]].StartNs {
				return spans[kids[a]].StartNs < spans[kids[b]].StartNs
			}
			return kids[a] < kids[b]
		})
	}
	var walk func(idx int, depth int)
	walk = func(idx, depth int) {
		sp := spans[idx]
		fmt.Fprintf(w, "%s%-*s %10s  @%s\n", strings.Repeat("  ", depth),
			16-2*depth, html.EscapeString(sp.Name), fdur(sp.EndNs-sp.StartNs), fdur(sp.StartNs))
		for _, c := range children[int32(idx)] {
			walk(c, depth+1)
		}
	}
	for _, root := range children[-1] {
		walk(root, 0)
	}
}

// fdur formats nanoseconds with time.Duration's rendering.
func fdur(ns int64) string { return time.Duration(ns).String() }
