package server

// Tests for SLO-driven readiness and per-plan serving telemetry: the
// /readyz endpoint flips to 503 when the burn-rate engine trips (and
// while draining), /healthz reports its JSON body, every successful
// multiplication echoes its plan identity in X-Abmm-Plan, the gate
// sheds probabilistically on the SLO hint, and /debug/plans serves the
// attribution registry.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"abmm"
	"abmm/internal/obs"
)

func TestReadyzFlipsUnderSLOBurn(t *testing.T) {
	// A 1ns latency objective: the first multiplication burns the full
	// budget in both windows and readiness must drop.
	s := newTestServer(t, Config{
		Workers: 1,
		SLO:     obs.SLOConfig{LatencyP99: time.Nanosecond, Window: time.Minute},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, err := ts.Client().Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fresh server /readyz = %d, want 200", resp.StatusCode)
		}
	}

	_, body := binaryBody(t, "ours", 1, 16, 16, 16)
	resp, err := postMultiply(ts, body, ContentTypeBinary)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("multiply = %d, want 200", resp.StatusCode)
	}

	rresp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after burning the 1ns objective = %d, want 503", rresp.StatusCode)
	}
	var st struct {
		Ready bool          `json:"ready"`
		SLO   obs.SLOStatus `json:"slo"`
	}
	if err := json.NewDecoder(rresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Ready || !st.SLO.Enabled || !st.SLO.Latency.Burning {
		t.Errorf("readyz body = %+v, want unready with the latency objective burning", st)
	}
	if st.SLO.ShedProbability <= 0 {
		t.Errorf("shed probability = %g, want > 0 under full burn", st.SLO.ShedProbability)
	}
}

func TestReadyzWhileDraining(t *testing.T) {
	// Draining makes the server unready even with no SLO configured.
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.draining.Store(true)
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", resp.StatusCode)
	}
	var st struct {
		Ready    bool `json:"ready"`
		Draining bool `json:"draining"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Ready || !st.Draining {
		t.Errorf("readyz body = %+v, want draining and not ready", st)
	}
}

func TestHealthzJSONBody(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", resp.StatusCode)
	}
	var h struct {
		Status        string  `json:"status"`
		Draining      bool    `json:"draining"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		InFlight      int     `json:"in_flight"`
		Queued        int     `json:"queued"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Draining || h.UptimeSeconds < 0 || h.InFlight != 0 {
		t.Errorf("healthz body = %+v", h)
	}
}

// TestPlanHeaderAndDebugPlans checks that X-Abmm-Plan and /debug/plans
// agree on the compiled plan, for an explicit depth and for the
// automatic one (16³ sits below the 512 floor, so it resolves to L0).
func TestPlanHeaderAndDebugPlans(t *testing.T) {
	for _, tc := range []struct {
		name   string
		levels int
		want   string
	}{
		{"explicit", 1, "ours/L1/seq"},
		{"auto", abmm.AutoLevels, "ours/L0/seq"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, Config{Workers: 1})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			_, body := binaryBody(t, "ours", tc.levels, 16, 16, 16)
			resp, err := postMultiply(ts, body, ContentTypeBinary)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if got := resp.Header.Get("X-Abmm-Plan"); got != tc.want {
				t.Errorf("X-Abmm-Plan = %q, want %s", got, tc.want)
			}

			presp, err := ts.Client().Get(ts.URL + "/debug/plans?format=json")
			if err != nil {
				t.Fatal(err)
			}
			defer presp.Body.Close()
			var page obs.PlansPage
			if err := json.NewDecoder(presp.Body).Decode(&page); err != nil {
				t.Fatal(err)
			}
			if len(page.Plans) != 1 {
				t.Fatalf("/debug/plans lists %d plans, want 1: %+v", len(page.Plans), page)
			}
			if ps := page.Plans[0]; ps.Plan != tc.want || ps.Shape != "16x16x16" || ps.Execs != 1 {
				t.Errorf("plan stats = %+v", ps)
			}
		})
	}
}

func TestGateShedsOnSLOHint(t *testing.T) {
	// With a shed hint of 1 every queue-bound admission is refused with
	// the SLO error; the fast path (free slot) stays untouched so some
	// work always lands even while shedding.
	g := newGate(1, 4, time.Second)
	g.shed = func() float64 { return 1 }

	release, queued, err := g.acquire(context.Background())
	if err != nil || queued {
		t.Fatalf("fast path blocked by shedding: queued=%t err=%v", queued, err)
	}

	// Slot held: the next acquire misses the fast path and must shed.
	_, _, err = g.acquire(context.Background())
	if !errors.Is(err, errSLOShed) {
		t.Fatalf("acquire under full shed = %v, want errSLOShed", err)
	}
	if g.rejectedShed.Load() != 1 {
		t.Errorf("rejectedShed = %d, want 1", g.rejectedShed.Load())
	}
	release()

	// Hint at zero: queueing works again.
	g.shed = func() float64 { return 0 }
	release2, _, err := g.acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire with zero shed hint: %v", err)
	}
	release2()
}
