// Package metricspkg exercises metric-cardinality over the Prometheus
// text exposition format written through fmt.
package metricspkg

import (
	"fmt"
	"io"
	"net/http"
)

type row struct {
	name string
	n    int
}

func (r row) String() string { return r.name }

// WriteSprintf builds a label value with fmt.Sprintf: every distinct
// id mints a new time series.
func WriteSprintf(w io.Writer, id int) {
	fmt.Fprintf(w, "req_total{user=%q} %d\n", fmt.Sprintf("u-%d", id), 1) // want metric-cardinality
}

// WriteConcat concatenates a non-constant label value.
func WriteConcat(w io.Writer, shard string) {
	fmt.Fprintf(w, "req_total{shard=%q} %d\n", "s-"+shard, 1) // want metric-cardinality
}

// WriteBounded uses struct fields, method results, constants, and
// numeric verbs: all bounded by construction (the PlanRegistry
// pattern).
func WriteBounded(w io.Writer, r row, code int) {
	fmt.Fprintf(w, "req_total{plan=%q,code=\"%d\"} %d\n", r.name, code, r.n)
	fmt.Fprintf(w, "req_bytes{plan=%q} %d\n", r.String(), r.n)
	fmt.Fprintf(w, "up{env=%q} 1\n", "prod")
}

// WriteOutsideBraces formats freely outside a label block: Sprintf
// and concatenation are only a problem in label-value position.
func WriteOutsideBraces(w io.Writer, r row) {
	fmt.Fprintf(w, "# HELP %s %s\n", fmt.Sprintf("x%d", r.n), "s-"+r.name)
}

// Buffered builds a whole line with Sprintf but keeps the label value
// bounded: the format parse looks at the label position, not the call.
func Buffered(r row) string {
	return fmt.Sprintf("req_total{plan=%q} %d\n", r.name, r.n)
}

// family mirrors obs.Family: label name/value pairs travel as
// variadic strings, judged through the //abmm:labels directive.
type family struct{}

//abmm:labels
func (family) Int(v int64, labels ...string) {}

//abmm:labels
func (family) Hist(h []int64, scale float64, labels ...string) {}

// WriteHelper passes Sprintf-built and request-derived label values to
// the helper, histogram series included.
func WriteHelper(f family, r row, req *http.Request, id int) {
	f.Int(1, "user", fmt.Sprintf("u-%d", id))                         // want metric-cardinality
	f.Hist(nil, 1e-9, "plan", r.name, "shape", fmt.Sprintf("%d", id)) // want metric-cardinality
	f.Hist(nil, 1e-9, "path", req.URL.Path)                           // want metric-cardinality
}

// WriteHelperBounded passes struct fields, method results and
// constants, and spreads a slice, which the check does not follow.
func WriteHelperBounded(f family, r row, labels []string) {
	f.Int(int64(r.n), "plan", r.name, "kind", "classical")
	f.Hist(nil, 1, "plan", r.String())
	f.Int(0, labels...)
}
