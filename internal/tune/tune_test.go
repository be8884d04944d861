package tune

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"abmm/internal/algos"
	"abmm/internal/core"
	"abmm/internal/matrix"
)

var update = flag.Bool("update", false, "rewrite golden files")

func coreOptions() core.Options {
	return core.Options{Levels: core.AutoLevels, Workers: 1}
}

// TestCandidatesEnumeration pins the enumeration order and the
// divisibility/base-size cutoff: the classical L0 reference comes
// first (under the default algorithm's name, pad ratio exactly 1), and
// per-algorithm levels stop as soon as a base-block dimension drops
// below MinBase.
func TestCandidatesEnumeration(t *testing.T) {
	ours := algos.Ours()
	tn := New(Config{Algorithms: []string{"ours"}, MaxLevels: 3, MinBase: 96})
	cands := tn.Candidates(ours, 256, 256, 256)

	if len(cands) == 0 || cands[0].Levels != 0 || cands[0].Alg != ours || cands[0].PadRatio != 1 {
		t.Fatalf("first candidate is not the classical L0 reference: %+v", cands)
	}
	if cands[0].BoundFactor != 256*256 {
		t.Errorf("L0 bound factor = %g, want k² = %d", cands[0].BoundFactor, 256*256)
	}
	// ours is ⟨2,2,2;7⟩: L1 base 128 ≥ 96, L2 base 64 < 96 — exactly one
	// recursive candidate survives.
	var recursive []Candidate
	for _, c := range cands {
		if c.Levels > 0 {
			recursive = append(recursive, c)
		}
	}
	if len(recursive) != 1 || recursive[0].Levels != 1 {
		t.Errorf("recursive candidates = %+v, want exactly ours/L1", recursive)
	}
	if got := recursive[0].String(); got != "ours/L1/seq" {
		t.Errorf("String() = %q", got)
	}
}

// TestCandidatesPruning pins the two pre-timing filters: the pad-ratio
// cap drops wasteful paddings and the error-bound cap drops
// accuracy-violating depths, both counted in
// abmm_tune_candidates_pruned_total. The L0 reference is exempt from
// the bound cap.
func TestCandidatesPruning(t *testing.T) {
	ours := algos.Ours()

	// 33 pads to 34 at L1 and to 36 at L2 under ⟨2,2,2⟩: ratios
	// (34/33)³ ≈ 1.09 and (36/33)³ ≈ 1.30. The 1.25 cap keeps L1 and
	// prunes L2.
	padded := New(Config{Algorithms: []string{"ours"}, MaxLevels: 2, MinBase: 8})
	var levels []int
	for _, c := range padded.Candidates(ours, 33, 33, 33) {
		if c.PadRatio > maxPadRatio {
			t.Errorf("pad-ratio cap leaked candidate %s (ratio %.3f)", c, c.PadRatio)
		}
		levels = append(levels, c.Levels)
	}
	if len(levels) != 2 || levels[0] != 0 || levels[1] != 1 {
		t.Errorf("candidate levels = %v, want [0 1] (L2 pads past the cap)", levels)
	}
	if padded.pruned.Load() != 1 {
		t.Errorf("pad-ratio pruning counted %d, want 1", padded.pruned.Load())
	}

	// A bound cap of exactly 1.0×k² rejects every recursive level (any
	// L ≥ 1 factor exceeds the classical k²) but must keep L0.
	strict := New(Config{Algorithms: []string{"ours"}, MaxLevels: 2, MinBase: 16, MaxBoundRatio: 1.0})
	cands := strict.Candidates(ours, 256, 256, 256)
	if len(cands) != 1 || cands[0].Levels != 0 {
		t.Errorf("bound cap kept %+v, want only the L0 reference", cands)
	}
	if strict.pruned.Load() == 0 {
		t.Error("bound pruning not counted")
	}

	// A generous bound cap keeps the recursive candidates.
	loose := New(Config{Algorithms: []string{"ours"}, MaxLevels: 2, MinBase: 16, MaxBoundRatio: 1000})
	var kept int
	for _, c := range loose.Candidates(ours, 256, 256, 256) {
		if c.Levels > 0 {
			kept++
		}
	}
	if kept != 2 {
		t.Errorf("loose bound cap kept %d recursive candidates, want 2 (L1, L2)", kept)
	}

	// Unknown algorithm names are skipped, not fatal.
	odd := New(Config{Algorithms: []string{"no-such-alg"}})
	cands = odd.Candidates(ours, 256, 256, 256)
	if len(cands) != 1 || cands[0].Levels != 0 {
		t.Errorf("unknown names not skipped cleanly: %+v", cands)
	}
}

// TestChooseFromProfile pins the profile-first serving path: an
// installed cell answers without any measurement, resolved against the
// live catalog.
func TestChooseFromProfile(t *testing.T) {
	tn := New(Config{})
	tn.Install(&Profile{Schema: Schema, Cells: []Entry{
		{M: 96, K: 96, N: 96, Alg: "strassen", Levels: 1, Schedule: "seq", Workers: 2},
	}})
	ch, ok := tn.Choose(algos.Ours(), coreOptions(), 96, 96, 96)
	if !ok {
		t.Fatal("Choose had no opinion despite an installed cell")
	}
	if ch.Alg == nil || ch.Alg.Name != "strassen" || ch.Levels != 1 || ch.Workers != 2 {
		t.Errorf("choice = %+v", ch)
	}
	// A different shape is a miss (Budget 0 → no opinion).
	if _, ok := tn.Choose(algos.Ours(), coreOptions(), 97, 97, 97); ok {
		t.Error("Choose invented an opinion for an untuned shape")
	}
	// The abmm_tune_* families after one profile and one default
	// decision, byte for byte.
	var buf bytes.Buffer
	tn.WriteMetrics(&buf)
	golden := filepath.Join("testdata", "tune_metrics.golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("tuner metrics drifted from %s (regenerate with -update):\n%s", golden, buf.String())
	}
}

// TestChooseUnknownAlgorithmFallsBack pins cross-build degradation: a
// profile cell naming an algorithm this catalog lacks yields "no
// opinion", not an error.
func TestChooseUnknownAlgorithmFallsBack(t *testing.T) {
	tn := New(Config{})
	tn.Install(&Profile{Schema: Schema, Cells: []Entry{
		{M: 64, K: 64, N: 64, Alg: "from-the-future", Levels: 1, Schedule: "seq"},
	}})
	if _, ok := tn.Choose(algos.Ours(), coreOptions(), 64, 64, 64); ok {
		t.Error("Choose resolved an algorithm the catalog lacks")
	}
}

// TestChooseOnlineMeasurement pins the Budget > 0 path: a miss tunes
// inline, installs the entry, and subsequent calls answer from memory.
func TestChooseOnlineMeasurement(t *testing.T) {
	tn := New(Config{
		Algorithms: []string{"ours"}, MaxLevels: 1, MinBase: 16, Reps: 1,
		Budget: 5 * time.Second,
	})
	ch, ok := tn.Choose(algos.Ours(), coreOptions(), 64, 64, 64)
	if !ok {
		t.Fatal("online measurement produced no opinion")
	}
	if ch.Alg == nil || ch.Levels < 0 {
		t.Errorf("measured choice = %+v", ch)
	}
	if got := tn.cells(); got != 1 {
		t.Fatalf("measured entry not installed (cells = %d)", got)
	}
	before := tn.fromProfile.Load()
	if _, ok := tn.Choose(algos.Ours(), coreOptions(), 64, 64, 64); !ok {
		t.Fatal("second Choose lost the measured entry")
	}
	if tn.fromMeasured.Load() != 1 || tn.fromProfile.Load() != before+1 {
		t.Errorf("decision counters: measured=%d profile=%d, want 1 and %d",
			tn.fromMeasured.Load(), tn.fromProfile.Load(), before+1)
	}
	// The snapshot carries the measured cell, stamped and loadable.
	p := tn.Profile()
	if len(p.Cells) != 1 || p.Schema != Schema {
		t.Errorf("Profile() snapshot = %+v", p)
	}
	enc, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(enc); err != nil {
		t.Errorf("snapshot does not survive its own decoder: %v", err)
	}
}

// TestTuneSmallShape runs a real (tiny) tuning pass end to end and
// checks the entry's bookkeeping: measurements present, baseline
// recorded, bound factor positive.
func TestTuneSmallShape(t *testing.T) {
	tn := New(Config{Algorithms: []string{"ours"}, MaxLevels: 1, MinBase: 16, Reps: 1})
	e, err := tn.Tune(algos.Ours(), coreOptions(), 48, 48, 48, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.M != 48 || e.K != 48 || e.N != 48 {
		t.Errorf("entry shape = %dx%dx%d", e.M, e.K, e.N)
	}
	if e.NsPerOp <= 0 || e.DefaultNsPerOp <= 0 || e.GFLOPS <= 0 {
		t.Errorf("measurements missing: %+v", e)
	}
	if e.DefaultPlan == "" || e.Alg == "" || e.BoundFactor <= 0 {
		t.Errorf("bookkeeping missing: %+v", e)
	}
	if e.Schedule != schedule {
		t.Errorf("entry schedule %q, want %q", e.Schedule, schedule)
	}
	if _, err := tn.Tune(algos.Ours(), coreOptions(), 0, 48, 48, 0); err == nil {
		t.Error("Tune accepted an invalid shape")
	}
}

// TestMeasureExpiredDeadline pins the budget floor: a deadline already
// in the past stops measurement before the warmup (ok=false), and a
// Choose whose online budget is too small to even measure the baseline
// degrades to "no opinion" — never an error on the serve path.
func TestMeasureExpiredDeadline(t *testing.T) {
	tn := New(Config{Reps: 1})
	a, b := matrix.New(16, 16), matrix.New(16, 16)
	dst := matrix.New(16, 16)
	mu := core.New(algos.Ours(), core.Options{Levels: 0, Workers: 1})
	if ns, ok := tn.measure(mu, dst, a, b, time.Now().Add(-time.Second)); ok || ns != 0 {
		t.Errorf("measure past an expired deadline returned ns=%d ok=%t", ns, ok)
	}
	// Without a deadline at least one rep always completes.
	if ns, ok := tn.measure(mu, dst, a, b, time.Time{}); !ok || ns <= 0 {
		t.Errorf("unbounded measure returned ns=%d ok=%t", ns, ok)
	}

	// A 1ns online budget expires before the baseline can be measured:
	// Tune errors, and Choose swallows that into a default decision.
	online := New(Config{Algorithms: []string{"ours"}, MaxLevels: 1, MinBase: 16, Reps: 1, Budget: time.Nanosecond})
	if _, ok := online.Choose(algos.Ours(), coreOptions(), 64, 64, 64); ok {
		t.Error("Choose had an opinion despite an unmeasurable budget")
	}
	if online.fromDefault.Load() != 1 {
		t.Errorf("fromDefault = %d, want 1", online.fromDefault.Load())
	}
}
