package obs

// HTTP surface for the per-plan registry: the /debug/plans inspector
// (HTML table for humans, ?format=json pinned by a golden test) and the
// per-plan Prometheus families for the shared /metrics endpoint. Label
// cardinality is bounded by the registry itself — at most MaxPlans
// (plan, shape) pairs plus the "other" overflow series — so a scraper
// never sees unbounded label growth no matter the shape traffic.

import (
	"encoding/json"
	"fmt"
	"html"
	"io"
	"net/http"
)

// Handler serves the /debug/plans inspector: an HTML table of every
// registered plan's hit count, latency quantiles, effective GFLOPS,
// arena high-water, and measured-error/bound ratio, with exemplar trace
// IDs linking into the /debug/requests span viewer. ?format=json serves
// the PlansPage document instead.
func (r *PlanRegistry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		page := r.Page()
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(page)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		writePlansHTML(w, page)
	})
}

func writePlansHTML(w io.Writer, page PlansPage) {
	io.WriteString(w, `<!DOCTYPE html>
<html><head><title>abmm plans</title><style>
body { font-family: monospace; margin: 1.5em; }
table { border-collapse: collapse; }
th, td { border: 1px solid #ccc; padding: 0.3em 0.6em; text-align: right; }
th { background: #f0f0f0; }
td.l { text-align: left; }
tr.dead td { color: #999; }
</style></head><body>
<h1>abmm plans</h1>
`)
	fmt.Fprintf(w, "<p>%d plans registered (bound %d), %d compilations overflowed to the shared <code>other</code> slot. Evicted plans are greyed until their slot is reclaimed.</p>\n",
		len(page.Plans), page.MaxPlans, page.Overflowed)
	io.WriteString(w, `<table>
<tr><th>plan</th><th>shape</th><th>kernel</th><th>execs</th><th>p50</th><th>p95</th><th>p99</th><th>GFLOPS<br>(classical)</th><th>GFLOPS<br>(effective)</th><th>arena HW</th><th>err samples</th><th>err/bound p99</th><th>slowest trace</th><th>last trace</th></tr>
`)
	rows := page.Plans
	if page.Other != nil {
		rows = append(append([]PlanStats{}, rows...), *page.Other)
	}
	for _, p := range rows {
		cls := ""
		if !p.Live {
			cls = ` class="dead"`
		}
		fmt.Fprintf(w, "<tr%s><td class=\"l\">%s</td><td>%s</td><td>%s</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%.1f</td><td>%.1f</td><td>%d</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
			cls,
			html.EscapeString(p.Plan), html.EscapeString(p.Shape), html.EscapeString(p.Kernel),
			p.Execs,
			fdur(p.Latency.P50), fdur(p.Latency.P95), fdur(p.Latency.P99),
			p.ClassicalGFLOPS, p.EffectiveGFLOPS,
			p.ArenaHighWaterBytes,
			p.ErrorSamples, fnum(p.ErrorRatio.P99),
			traceLink(p.SlowestTrace), traceLink(p.LastTrace))
	}
	io.WriteString(w, "</table>\n<p><a href=\"/debug/plans?format=json\">json</a> · <a href=\"/debug/requests\">requests</a> · <a href=\"/metrics\">metrics</a></p>\n</body></html>\n")
}

// traceLink renders an exemplar trace ID as a /debug/requests lookup
// link (or a dash when the plan has no traced exemplar yet).
func traceLink(id string) string {
	if id == "" {
		return "&mdash;"
	}
	short := id
	if len(short) > 16 {
		short = short[:16]
	}
	return fmt.Sprintf("<a href=\"/debug/requests?id=%s\">%s&hellip;</a>", id, short)
}

// fdur formats a duration in seconds the way humans scan tables:
// millisecond precision above 1ms, microseconds below.
func fdur(sec float64) string {
	switch {
	case sec <= 0:
		return "0"
	case sec >= 1:
		return fmt.Sprintf("%.2fs", sec)
	case sec >= 1e-3:
		return fmt.Sprintf("%.2fms", sec*1e3)
	default:
		return fmt.Sprintf("%.1fµs", sec*1e6)
	}
}

// WritePlanMetrics renders the registry's per-plan Prometheus families
// onto a /metrics scrape (a MetricsWriter extra):
//
//	abmm_plan_execs_total{plan,shape}      executions per plan
//	abmm_plan_latency_seconds{plan,shape}  per-plan latency histogram
//	abmm_plan_gflops{plan,shape,kind}      classical/effective rate gauges
//	abmm_plan_error_ratio{plan,shape}      measured-error/bound histogram
//	abmm_plan_arena_high_water_bytes{plan,shape}
//	abmm_plan_overflowed_total             compilations beyond the bound
//
// The overflow slot is emitted with plan="other",shape="other", keeping
// total cardinality at MaxPlans+1 series per family. Every family is
// rendered from one Page, so counters and histograms describe the same
// registry state. A nil registry writes nothing.
func (r *PlanRegistry) WritePlanMetrics(w io.Writer) {
	if r == nil {
		return
	}
	page := r.Page()
	rows := page.Plans
	if page.Other != nil {
		rows = append(append([]PlanStats{}, rows...), *page.Other)
	}

	execs := WriteFamily(w, "abmm_plan_execs_total", "counter", "Completed executions per compiled plan.")
	for _, p := range rows {
		execs.Int(p.Execs, "plan", p.Plan, "shape", p.Shape)
	}

	latency := WriteFamily(w, "abmm_plan_latency_seconds", "histogram", "Per-plan execution wall time in seconds.")
	for _, p := range rows {
		latency.Hist(p.latencyHist, 1e-9, "plan", p.Plan, "shape", p.Shape)
	}

	gflops := WriteFamily(w, "abmm_plan_gflops", "gauge", "Sustained per-plan flop rate (classical counts 2mkn, effective the algorithm's true cost).")
	for _, p := range rows {
		gflops.Float(p.ClassicalGFLOPS, "plan", p.Plan, "shape", p.Shape, "kind", "classical")
		gflops.Float(p.EffectiveGFLOPS, "plan", p.Plan, "shape", p.Shape, "kind", "effective")
	}

	errRatio := WriteFamily(w, "abmm_plan_error_ratio", "histogram", "Per-plan sampled measured error over the predicted Theorem III.8 bound.")
	for _, p := range rows {
		errRatio.Hist(p.errRatioHist, 1/errAttoScale, "plan", p.Plan, "shape", p.Shape)
	}

	arena := WriteFamily(w, "abmm_plan_arena_high_water_bytes", "gauge", "Peak workspace arena bytes per plan.")
	for _, p := range rows {
		arena.Int(p.ArenaHighWaterBytes, "plan", p.Plan, "shape", p.Shape)
	}

	WriteFamily(w, "abmm_plan_overflowed_total", "counter", "Plan compilations beyond the registry bound, attributed to the shared other slot.").Int(page.Overflowed)
}
