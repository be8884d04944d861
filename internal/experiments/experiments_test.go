package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

func tinyParams() Params {
	p := Default()
	p.Fig2ASizes = []int{128}
	p.Fig2BSize = 128
	p.Fig2BLevels = []int{0, 1}
	p.ErrorSize = 96
	p.ErrorRuns = 1
	p.Fig3Size = 81
	p.Fig3Runs = 1
	p.Fig4Size = 64
	p.Fig4Runs = 1
	p.Reps = 1
	p.Workers = 2
	return p
}

// TestDeterministicTablesMatchCommittedOutput regenerates the tables
// whose numbers come from neither timing nor a long error sweep —
// Tables I–III, Figure 1 and the distributed table — at the committed
// seed (cmd/experiments' defaults) and requires each to equal its
// section of experiments_output.txt byte for byte: a change that moves
// one of them regenerates the file in the same commit.
func TestDeterministicTablesMatchCommittedOutput(t *testing.T) {
	raw, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	committed := string(raw)
	p := Default()
	for _, tab := range []*Table{TableI(), TableII(), TableIII(true), Fig1(p), Dist(p)} {
		i := strings.Index(committed, "== "+tab.Title+" ==\n")
		if i < 0 {
			t.Errorf("experiments_output.txt has no %q section", tab.Title)
			continue
		}
		want, _, _ := strings.Cut(committed[i:], "\n\n")
		if got := tab.String(); got != want+"\n" {
			t.Errorf("%s differs from experiments_output.txt:\ngot:\n%s\nwant:\n%s\n", tab.Title, got, want)
		}
	}
}

func TestTableIContent(t *testing.T) {
	out := TableI().String()
	for _, want := range []string{
		"strassen", "7n^log2(7) - 6n²",
		"winograd", "6n^log2(7) - 5n²",
		"ours", "9/4·n²·log2 n", "n^log2(12)",
		"alt-winograd", "6/4·n²·log2 n", "n^log2(18)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestTableIIAltNeverSlower(t *testing.T) {
	tab := TableII()
	if len(tab.Rows) < 4 {
		t.Fatalf("Table II too small: %d rows", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		// adds(alt) < adds(std) and E(alt) == E(std) for every class.
		var addsStd, addsAlt int
		var eStd, eAlt float64
		mustScan(t, row[1], &addsStd)
		mustScan(t, row[2], &addsAlt)
		mustScanF(t, row[5], &eStd)
		mustScanF(t, row[6], &eAlt)
		if addsAlt >= addsStd {
			t.Errorf("%s: alt additions %d not below std %d", row[0], addsAlt, addsStd)
		}
		// Stability factors are computed in exact arithmetic; the
		// alternative basis must preserve them bit-for-bit.
		//abmm:allow float-discipline
		if eStd != eAlt {
			t.Errorf("%s: stability factor changed %g → %g", row[0], eStd, eAlt)
		}
	}
}

func TestTableIIIContent(t *testing.T) {
	out := TableIII(false).String()
	for _, want := range []string{"strassen", "50.21", "winograd", "28.05", "2.68n²"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table III missing %q:\n%s", want, out)
		}
	}
}

func TestFig1FamilyShape(t *testing.T) {
	tab := Fig1(tinyParams())
	if len(tab.Rows) < 8 {
		t.Fatalf("figure 1 family too small: %d", len(tab.Rows))
	}
	// Alternating standard/alternative rows share E pairwise.
	for i := 0; i+1 < len(tab.Rows); i += 2 {
		if tab.Rows[i][1] != "standard" || tab.Rows[i+1][1] != "alternative" {
			t.Fatalf("row order broken at %d", i)
		}
		if tab.Rows[i][3] != tab.Rows[i+1][3] {
			t.Errorf("pair %d: E %s vs %s", i, tab.Rows[i][3], tab.Rows[i+1][3])
		}
	}
}

func TestFigSmokes(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smokes are slow")
	}
	p := tinyParams()
	for name, fn := range map[string]func(Params) *Table{
		"fig2a": Fig2A, "fig2b": Fig2B, "fig2c": Fig2C, "fig2d": Fig2D, "fig3": Fig3, "fig4": Fig4,
	} {
		tab := fn(p)
		if len(tab.Rows) == 0 {
			t.Errorf("%s produced no rows", name)
		}
		if !strings.Contains(tab.String(), "Figure") {
			t.Errorf("%s missing title", name)
		}
	}
}

func TestTableStringAlignment(t *testing.T) {
	tab := &Table{Title: "x", Header: []string{"a", "bb"}, Rows: [][]string{{"lonng", "1"}}, Notes: []string{"n"}}
	out := tab.String()
	if !strings.Contains(out, "== x ==") || !strings.Contains(out, "note: n") {
		t.Fatalf("bad render:\n%s", out)
	}
}

func mustScan(t *testing.T, s string, dst *int) {
	t.Helper()
	if _, err := fmt.Sscan(s, dst); err != nil {
		t.Fatalf("cannot parse %q: %v", s, err)
	}
}

func mustScanF(t *testing.T, s string, dst *float64) {
	t.Helper()
	if _, err := fmt.Sscan(s, dst); err != nil {
		t.Fatalf("cannot parse %q: %v", s, err)
	}
}

func TestPhasesBreakdown(t *testing.T) {
	p := tinyParams()
	p.PhaseSize = 96
	p.PhaseLevels = []int{1}
	tab := Phases(p)
	if len(tab.Rows) != 4 { // one per ⟨2,2,2;7⟩ algorithm
		t.Fatalf("want 4 rows, got %d", len(tab.Rows))
	}
	col := map[string]int{}
	for i, h := range tab.Header {
		col[h] = i
	}
	for _, h := range []string{"pad", "crop", "reuse"} {
		if _, ok := col[h]; !ok {
			t.Fatalf("phase table has no %q column: %v", h, tab.Header)
		}
	}
	for _, row := range tab.Rows {
		// The pipeline shares (pad..crop) must sum to ~100% of wall time.
		var sum float64
		for _, cell := range row[col["pad"] : col["crop"]+1] {
			var v float64
			mustScanF(t, strings.TrimSuffix(cell, "%"), &v)
			sum += v
		}
		if sum < 90 || sum > 101 {
			t.Errorf("%s L=%s: phase shares sum to %.1f%%, want ~100%%", row[0], row[1], sum)
		}
		// A warm plan reuses its scratch (exactly 1.000 unless a GC
		// cycle reclaims the pooled arena mid-test, so allow slack).
		// Under the race detector sync.Pool drops a random share of
		// Puts, so the arena is rebuilt too often for the check to hold.
		var reuse float64
		mustScanF(t, row[col["reuse"]], &reuse)
		if reuse < 0.5 && !raceEnabled {
			t.Errorf("%s L=%s: warm arena reuse %.3f, want ~1", row[0], row[1], reuse)
		}
	}
}
