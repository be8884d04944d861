package main

import (
	"errors"
	"math"
	"strings"
	"testing"
)

var testMetrics = []metric{
	{Name: "gflops", Better: "higher", Bound: 0.25},
	{Name: "req_p50_ms", Better: "lower", Bound: 0.25},
}

// side returns five correct runs whose gflops are the given values
// (scaled by gf) and whose req_p50_ms read 1/gflops.
func side(gf float64, gflops ...float64) []run {
	var runs []run
	for _, g := range gflops {
		runs = append(runs, run{correct: true, attempted: 100,
			metrics: map[string]float64{"gflops": g * gf, "req_p50_ms": 1 / (g * gf)}})
	}
	return runs
}

// narrow is a parent whose gflops IQR is [99, 101].
func narrow() []run { return side(1, 98, 99, 100, 101, 102) }

func TestDecideIdenticalSidesPass(t *testing.T) {
	if lines, ok := decide(testMetrics, narrow(), narrow()); !ok {
		t.Fatalf("identical sides failed:\n%s", strings.Join(lines, "\n"))
	}
}

func TestDecideGflopsDropOutsideIQRFails(t *testing.T) {
	if _, ok := decide(testMetrics, narrow(), side(0.7, 98, 99, 100, 101, 102)); ok {
		t.Fatal("a 30% lower gflops median outside the parent's IQR passed")
	}
}

func TestDecideDropInsideWideIQRPasses(t *testing.T) {
	// The parent's gflops IQR is [60, 140]; a median of 70 is 30% lower
	// but inside it. req_p50_ms moves the other way inside its own IQR.
	parent := side(1, 40, 60, 100, 140, 160)
	head := side(1, 50, 65, 70, 75, 90)
	if lines, ok := decide(testMetrics, parent, head); !ok {
		t.Fatalf("a drop inside a wide parent IQR failed:\n%s", strings.Join(lines, "\n"))
	}
}

func TestDecideLowerIsBetterRiseFails(t *testing.T) {
	head := narrow()
	for _, r := range head {
		r.metrics["req_p50_ms"] *= 1.3
	}
	if _, ok := decide(testMetrics, narrow(), head); ok {
		t.Fatal("req_p50_ms 30% higher passed")
	}
}

func TestDecideBetterDirectionPasses(t *testing.T) {
	if lines, ok := decide(testMetrics, narrow(), side(2, 98, 99, 100, 101, 102)); !ok {
		t.Fatalf("twice the gflops and half the latency failed:\n%s", strings.Join(lines, "\n"))
	}
}

func TestDecideMissingMetricFails(t *testing.T) {
	head := narrow()
	delete(head[2].metrics, "req_p50_ms")
	if _, ok := decide(testMetrics, narrow(), head); ok {
		t.Fatal("a run without req_p50_ms passed")
	}
}

func TestDecideNaNFails(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		head := narrow()
		head[0].metrics["gflops"] = v
		if _, ok := decide(testMetrics, narrow(), head); ok {
			t.Fatalf("a gflops of %v passed", v)
		}
	}
}

func TestDecideFailedRunFails(t *testing.T) {
	head := narrow()
	head[4] = run{err: errors.New("exit status 1")}
	if _, ok := decide(testMetrics, narrow(), head); ok {
		t.Fatal("a run that exited non-zero passed")
	}
}

func TestDecideLargerFailedShareFails(t *testing.T) {
	head := narrow()
	head[1].failed, head[1].correct = 1, false
	if _, ok := decide(testMetrics, narrow(), head); ok {
		t.Fatal("a head with failed operations passed against a parent with none")
	}
	// The same failures on both sides are no regression.
	if lines, ok := decide(testMetrics, head, head); !ok {
		t.Fatalf("equal failed shares failed:\n%s", strings.Join(lines, "\n"))
	}
}

func TestParseResult(t *testing.T) {
	out := "req_tail_ms is p99 of 10769 ops\nGOMAXPROCS=2 workload=serve-small seed=1 seconds=3 trace=0\n" +
		`{"correct":true,"attempted":10829,"failed":0,"metrics":{"gflops":{"value":38.1,"unit":"GFLOP/s"}}}` + "\n"
	r, err := parseResult([]byte(out))
	if err != nil || !r.correct || r.attempted != 10829 || r.failed != 0 || math.Abs(r.metrics["gflops"]-38.1) > 1e-9 {
		t.Fatalf("parseResult = %+v, %v", r, err)
	}
	for _, bad := range []string{"", "GOMAXPROCS=2\n", `{"attempted":1}`} {
		if _, err := parseResult([]byte(bad)); err == nil {
			t.Errorf("parseResult(%q) found a result line", bad)
		}
	}
}

func TestQuartiles(t *testing.T) {
	if q := quartiles([]float64{5, 1, 4, 2, 3}); q != [3]float64{2, 3, 4} {
		t.Fatalf("quartiles of 1..5 = %v, want [2 3 4]", q)
	}
}
