package lint

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// fixtureConfig is the analysis configuration of the golden fixture
// module under testdata/src/fixture: it mirrors the repository's
// package roles (a parallel-dispatch package, a compensated-arithmetic
// package, a dependency DAG with a deliberately unregistered package).
func fixtureConfig(t *testing.T) Config {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Dir:         dir,
		ModulePath:  "fixture",
		FakeImports: true,
		ParallelPkgs: map[string]bool{
			"fixture/par": true,
		},
		DDPkgs: map[string]bool{
			"fixture/dd": true,
		},
		AllowedImports: map[string][]string{
			"fixture/hot":          {"fixture/par"},
			"fixture/kern":         {"fixture/par"},
			"fixture/par":          {},
			"fixture/dep":          {},
			"fixture/atomicpkg":    {},
			"fixture/floats":       {},
			"fixture/dd":           {},
			"fixture/rat":          {},
			"fixture/imports/good": {"fixture/dep"},
			"fixture/imports/bad":  {},
			// fixture/imports/rogue is deliberately absent.
			"fixture/rsrc":       {},
			"fixture/svc":        {"fixture/rsrc"},
			"fixture/ctxpkg":     {},
			"fixture/lockpkg":    {},
			"fixture/gor":        {},
			"fixture/metricspkg": {},
		},
		// The fixture mirror of DefaultConfig's serving-layer pairs:
		// a method-released span, a closure-released fallible acquire,
		// and a pass-released registry claim.
		Pairs: []Pair{
			{Acquire: "fixture/rsrc.Start", Err: -1,
				Releases: []string{"method:End"}, What: "span"},
			{Acquire: "fixture/rsrc.Acquire", Result: 0, Err: 1,
				Releases: []string{"call"}, What: "slot"},
			{Acquire: "(*fixture/rsrc.Registry).Claim", Err: -1,
				Releases: []string{"pass:(*fixture/rsrc.Registry).Release"}, What: "slot"},
		},
	}
}

// wantComments scans every fixture file for trailing "// want <check>"
// comments and returns the expected findings as "relpath:line check"
// strings. Multiple check names on one comment pin multiple findings
// on that line.
func wantComments(t *testing.T, root string) []string {
	t.Helper()
	var want []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, tail, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			for _, check := range strings.Fields(tail) {
				want = append(want, fmt.Sprintf("%s:%d %s", filepath.ToSlash(rel), i+1, check))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(want)
	return want
}

// TestFixtures runs the full suite over the golden fixture module and
// asserts an exact two-way match between the findings and the fixture
// files' want comments: every expected finding is produced, and no
// unexpected finding appears. Each check has at least one true
// positive and one near-miss negative in the fixtures.
func TestFixtures(t *testing.T) {
	cfg := fixtureConfig(t)
	findings, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(findings) == 0 {
		t.Fatal("fixtures produced no findings; the analyzers are not firing")
	}
	var got []string
	for _, f := range findings {
		rel, err := filepath.Rel(cfg.Dir, f.Pos.Filename)
		if err != nil {
			rel = f.Pos.Filename
		}
		got = append(got, fmt.Sprintf("%s:%d %s", filepath.ToSlash(rel), f.Pos.Line, f.Check))
	}
	sort.Strings(got)
	want := wantComments(t, cfg.Dir)

	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings do not match want comments\n--- got ---\n%s\n--- want ---\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
		for _, f := range findings {
			t.Logf("finding: %s", f)
		}
	}

	// Every check must be exercised by at least one fixture finding.
	byCheck := make(map[string]int)
	for _, f := range findings {
		byCheck[f.Check]++
	}
	for _, check := range CheckNames() {
		if byCheck[check] == 0 {
			t.Errorf("check %s has no fixture true positive", check)
		}
	}
}

// TestFixtureMessages pins representative message text, so a reworded
// or misattributed diagnostic fails loudly rather than silently.
func TestFixtureMessages(t *testing.T) {
	findings, err := Run(fixtureConfig(t))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantSubstrings := []string{
		"make allocates on hot path",
		"append may grow its backing array",
		"boxes into an interface",
		"closure captures variables",
		"plain access is a data race",
		"copied by value",
		"==/!= between non-constant floats",
		"switch over a float",
		"raw a*b−c residual",
		"raw x -= a*b",
		"pointer borrowed from g.At",
		"same base, different index",
		"outside the standard library",
		"not in fixture/imports/bad's allowlist",
		"not registered in the dependency DAG",
		"is not released (.End()) on every return path",
		"is discarded; it can never be released",
		"severs the caller's cancellation",
		"takes ctx but never uses it",
		"can block the critical section",
		"but b.mu is not held here",
		"under read lock",
		"no reachable stop signal",
		"built with fmt.Sprintf",
		"non-constant string concatenation",
		"sits at offset 4 on 32-bit platforms",
		"has no justifying comment",
	}
	for _, sub := range wantSubstrings {
		found := false
		for _, f := range findings {
			if strings.Contains(f.Message, sub) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no finding message contains %q", sub)
		}
	}
}

// TestAllowScoping pins the //abmm:allow contract across the
// service-layer checks. The two-way fixture match already proves the
// suppressions hold; this test makes the scoping rules themselves
// explicit: a line-scoped allow suppresses only its own line and the
// next, a function-doc allow suppresses the whole function, and a
// justification-free allow is rejected as a finding that still cannot
// suppress itself.
func TestAllowScoping(t *testing.T) {
	cfg := fixtureConfig(t)
	findings, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	svc, err := os.ReadFile(filepath.Join(cfg.Dir, "svc", "svc.go"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(svc), "\n")
	lineOf := func(marker string) int {
		t.Helper()
		for i, l := range lines {
			if strings.Contains(l, marker) {
				return i + 1
			}
		}
		t.Fatalf("marker %q not in svc.go", marker)
		return 0
	}
	at := func(line int, check string) bool {
		for _, f := range findings {
			if f.Pos.Line == line && f.Check == check &&
				strings.HasSuffix(filepath.ToSlash(f.Pos.Filename), "svc/svc.go") {
				return true
			}
		}
		return false
	}

	// Line-scoped: the acquire on the line below the directive is
	// suppressed.
	if at(lineOf("func AllowedLine")+3, pairingCheck) {
		t.Error("line-scoped allow did not suppress the finding on the next line")
	}
	// Function-scoped: the acquire anywhere inside the annotated
	// function is suppressed.
	if at(lineOf("func AllowedFunc")+1, pairingCheck) {
		t.Error("function-scoped allow did not suppress the finding inside the function")
	}
	// Unjustified: the directive is itself a finding on its own line,
	// even though it still suppresses its target check.
	badLine := lineOf("func UnjustifiedAllow") + 1
	if !at(badLine, allowCheck) {
		t.Errorf("no unjustified-allow finding at svc.go:%d", badLine)
	}
	if at(badLine+1, pairingCheck) {
		t.Error("unjustified allow should still suppress its target check; the leak finding leaked through")
	}
}

// TestRepoClean runs the repository's own configuration over the whole
// module and requires zero findings: the invariant the abmmvet CI gate
// enforces. Skipped in -short mode (the source importer re-type-checks
// the standard library, which takes a few seconds).
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide analysis is slow; run without -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Run(DefaultConfig(root))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding: %s", f)
	}
}
