package obs

import (
	"bytes"
	"encoding/json"
	"expvar"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestPhaseNames(t *testing.T) {
	want := []string{"pad", "forward", "bilinear", "inverse", "crop", "pack", "kernel"}
	for i, w := range want {
		if got := Phase(i).String(); got != w {
			t.Errorf("Phase(%d) = %q, want %q", i, got, w)
		}
	}
	if got := Phase(99).String(); got != "unknown" {
		t.Errorf("out-of-range phase = %q", got)
	}
	if NumPhases != len(want) {
		t.Errorf("NumPhases = %d, want %d", NumPhases, len(want))
	}
	if NumPipelinePhases != 5 || phaseNames[NumPipelinePhases-1] != "crop" {
		t.Errorf("pipeline phases = %d ending %q, want 5 ending in crop",
			NumPipelinePhases, phaseNames[NumPipelinePhases-1])
	}
}

// TestNilSafety pins the no-op contract: nil Recorder interfaces, nil
// *Collector receivers, and zero-value spans must all be usable.
func TestNilSafety(t *testing.T) {
	ms := StartMul(nil, MulInfo{})
	ms.StartPhase(PhaseBilinear).End()
	ms.End()

	var c *Collector
	c.PhaseDone(PhasePad, time.Second)
	c.MulDone(MulInfo{}, time.Second)
	c.ArenaRelease(ArenaUsage{})
	c.ErrorSample(1e-15, 1e-12)
	c.Reset()
	c.SetPprofLabels(true)
	if c.PprofLabels() {
		t.Error("nil collector claims labels")
	}
	s := c.Snapshot()
	if s.Mults != 0 || len(s.Phases) != NumPhases {
		t.Errorf("nil snapshot: %+v", s)
	}

	ms = StartMul(c, MulInfo{}) // typed-nil recorder still records nothing
	ms.StartPhase(PhasePad).End()
	ms.End()
}

// TestSpanZeroAlloc pins the overhead contract: with recording disabled
// (nil recorder, tracer off) and with a live Collector (no trace, no
// pprof labels), the span machinery performs zero heap allocations.
func TestSpanZeroAlloc(t *testing.T) {
	run := func(rec Recorder) float64 {
		info := MulInfo{M: 8, K: 8, N: 8, Levels: 1, ClassicalFlops: 1024, AlgFlops: 900}
		return testing.AllocsPerRun(100, func() {
			ms := StartMul(rec, info)
			ms.StartPhase(PhasePad).End()
			ms.StartPhase(PhaseBilinear).End()
			ms.End()
		})
	}
	if av := run(nil); av != 0 {
		t.Errorf("nil recorder spans allocated %.1f objects/op, want 0", av)
	}
	if av := run(NewCollector()); av != 0 {
		t.Errorf("collector spans allocated %.1f objects/op, want 0", av)
	}
}

// TestCollectorConcurrent hammers one Collector from many goroutines
// and checks the aggregate exactly; run under `go test -race` (see the
// Makefile race target) this pins the lock-free recording paths.
func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	const goroutines, reps = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < reps; r++ {
				c.PhaseDone(Phase(r%NumPhases), time.Millisecond)
				c.MulDone(MulInfo{Levels: g % 4, ClassicalFlops: 10, AlgFlops: 7}, 5*time.Millisecond)
				c.ArenaRelease(ArenaUsage{
					AllocBytes:     int64(1000 + g),
					HighWaterBytes: int64(500 + g),
					RequestedBytes: 100,
					ReusedBytes:    90,
				})
			}
		}(g)
	}
	wg.Wait()

	s := c.Snapshot()
	total := int64(goroutines * reps)
	if s.Mults != total {
		t.Errorf("mults = %d, want %d", s.Mults, total)
	}
	if s.Levels != 3 {
		t.Errorf("levels = %d, want max 3", s.Levels)
	}
	if s.ClassicalFlops != 10*total || s.AlgFlops != 7*total {
		t.Errorf("flops = %d/%d", s.ClassicalFlops, s.AlgFlops)
	}
	var phaseCount int64
	for _, p := range s.Phases {
		phaseCount += p.Count
	}
	if phaseCount != total {
		t.Errorf("phase spans = %d, want %d", phaseCount, total)
	}
	if s.Arena.Releases != total {
		t.Errorf("releases = %d, want %d", s.Arena.Releases, total)
	}
	if s.Arena.AllocBytes != 1000+goroutines-1 || s.Arena.HighWaterBytes != 500+goroutines-1 {
		t.Errorf("arena maxima: %+v", s.Arena)
	}
	if s.Arena.RequestedBytes != 100*total || s.Arena.ReusedBytes != 90*total {
		t.Errorf("arena sums: %+v", s.Arena)
	}
	if got, want := s.Arena.ReuseRatio, 0.9; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("reuse ratio = %g, want %g", got, want)
	}

	c.Reset()
	if s := c.Snapshot(); s.Mults != 0 || s.Arena.AllocBytes != 0 || s.Phases[0].Count != 0 {
		t.Errorf("reset left state: %+v", s)
	}
}

// goldenCollector records a fixed, deterministic history.
func goldenCollector() *Collector {
	c := NewCollector()
	c.MulDone(MulInfo{M: 1024, K: 1024, N: 1024, Levels: 2,
		ClassicalFlops: 2 * 1024 * 1024 * 1024, AlgFlops: 1800 * 1024 * 1024}, 500*time.Millisecond)
	c.PhaseDone(PhasePad, 40*time.Millisecond)
	c.PhaseDone(PhaseForward, 30*time.Millisecond)
	c.PhaseDone(PhaseBilinear, 350*time.Millisecond)
	c.PhaseDone(PhaseInverse, 20*time.Millisecond)
	c.PhaseDone(PhaseCrop, 60*time.Millisecond)
	// Nested sub-phases of bilinear: overlap the pipeline stages above,
	// so they are excluded from the share-sum invariant.
	c.PhaseDone(PhasePack, 90*time.Millisecond)
	c.PhaseDone(PhaseKernel, 260*time.Millisecond)
	c.ArenaRelease(ArenaUsage{AllocBytes: 1 << 25, HighWaterBytes: 3 << 23, RequestedBytes: 1 << 26, ReusedBytes: 3 << 24})
	c.ErrorSample(0x1p-48, 0x1p-40) // measured 2^-48 against bound 2^-40: ratio 2^-8
	return c
}

// TestSnapshotGoldenJSON pins the JSON stats schema consumed by
// `cmd/abmm -stats-json` and expvar: field renames or removals break
// this golden file on purpose. Regenerate with `go test -run Golden
// ./internal/obs -update` after a deliberate schema change.
func TestSnapshotGoldenJSON(t *testing.T) {
	got, err := json.MarshalIndent(goldenCollector().Snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "snapshot.golden.json")
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
		t.Errorf("snapshot JSON schema drifted (run with -update if deliberate)\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestPhaseSharesSumToOne(t *testing.T) {
	s := goldenCollector().Snapshot()
	// Only the top-level pipeline stages partition the wall time; pack
	// and kernel are nested inside bilinear and would double-count.
	var sum float64
	for _, p := range s.Phases[:NumPipelinePhases] {
		sum += p.Share
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("pipeline shares sum to %g, want ~1 (phases: %+v)", sum, s.Phases)
	}
	var nested float64
	for _, p := range s.Phases[NumPipelinePhases:] {
		nested += p.Share
	}
	if bil := s.Phases[PhaseBilinear].Share; nested > bil+0.01 {
		t.Errorf("nested pack+kernel share %g exceeds bilinear share %g", nested, bil)
	}
}

func TestReportContents(t *testing.T) {
	rep := goldenCollector().Snapshot().Report()
	for _, want := range []string{"pad", "forward", "bilinear", "inverse", "crop",
		"pack", "kernel",
		"classical-equivalent", "effective", "high-water", "scratch reuse"} {
		if !bytes.Contains([]byte(rep), []byte(want)) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestPublishExpvar pins the expvar surface: the published string must
// be valid JSON whose key set matches the golden Snapshot schema
// exactly (so /debug/vars and the snapshot golden can never drift
// apart), and re-registration must be a no-op rather than a panic.
func TestPublishExpvar(t *testing.T) {
	c := goldenCollector()
	Publish("abmm_test_collector", c)
	Publish("abmm_test_collector", c) // second registration must not panic
	v := expvar.Get("abmm_test_collector")
	if v == nil {
		t.Fatal("collector not published")
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(v.String()), &s); err != nil {
		t.Fatalf("expvar payload is not snapshot JSON: %v", err)
	}
	if s.Mults != 1 || len(s.Phases) != NumPhases {
		t.Errorf("round-tripped snapshot: %+v", s)
	}
	if s.Errors.Samples != 1 || s.MulDuration.Count != 1 {
		t.Errorf("expvar snapshot lost histogram/error fields: %+v", s)
	}

	// Key-set comparison against the golden schema file.
	var published, golden map[string]any
	if err := json.Unmarshal([]byte(v.String()), &published); err != nil {
		t.Fatal(err)
	}
	g, err := os.ReadFile(filepath.Join("testdata", "snapshot.golden.json"))
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if err := json.Unmarshal(g, &golden); err != nil {
		t.Fatalf("golden snapshot is not valid JSON: %v", err)
	}
	if got, want := jsonKeys(published, ""), jsonKeys(golden, ""); !reflect.DeepEqual(got, want) {
		t.Errorf("expvar JSON keys drifted from golden schema:\ngot:  %v\nwant: %v", got, want)
	}
}

// jsonKeys flattens a decoded JSON object into its sorted key paths
// (recursing into objects and the first element of arrays).
func jsonKeys(v any, prefix string) []string {
	var keys []string
	switch x := v.(type) {
	case map[string]any:
		for k, sub := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			keys = append(keys, p)
			keys = append(keys, jsonKeys(sub, p)...)
		}
	case []any:
		if len(x) > 0 {
			keys = append(keys, jsonKeys(x[0], prefix+"[]")...)
		}
	}
	sort.Strings(keys)
	return keys
}

// TestResetWindowConcurrent pins windowed operation for long-running
// -listen processes: Reset must clear counters, histograms, and
// error-sampling state to a coherent empty window even while recorders
// are hammering the collector from other goroutines (run under
// `go test -race` via the Makefile race gate).
func TestResetWindowConcurrent(t *testing.T) {
	c := NewCollector()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.MulDone(MulInfo{Levels: 2, ClassicalFlops: 100, AlgFlops: 90}, 3*time.Millisecond)
				c.PhaseDone(PhaseBilinear, 2*time.Millisecond)
				c.ArenaRelease(ArenaUsage{RequestedBytes: 4096, ReusedBytes: 4096})
				c.ErrorSample(1e-15, 1e-12)
			}
		}()
	}
	for w := 0; w < 20; w++ {
		s := c.Snapshot()
		if s.Mults < 0 || s.MulDuration.Count < 0 || s.Errors.Samples < 0 {
			t.Fatalf("window %d: negative counts: %+v", w, s)
		}
		if s.MulDuration.Count > 0 && s.MulDuration.Max <= 0 {
			t.Fatalf("window %d: populated histogram without max: %+v", w, s)
		}
		c.Reset()
	}
	close(stop)
	wg.Wait()

	// With recorders quiesced, one more reset must leave a fully empty
	// window: totals, distributions, and sampling state all zero.
	c.Reset()
	s := c.Snapshot()
	if s.Mults != 0 || s.Seconds != 0 ||
		s.MulDuration.Count != 0 || s.MulDuration.Max != 0 ||
		s.ArenaRequest.Count != 0 || s.Errors.Samples != 0 ||
		s.Errors.Measured.Count != 0 || s.Errors.BoundRatio.Max != 0 {
		t.Fatalf("reset left window state: %+v", s)
	}
	for _, p := range s.Phases {
		if p.Count != 0 || p.P99 != 0 {
			t.Fatalf("reset left phase state: %+v", p)
		}
	}
}
