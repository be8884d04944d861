// Command bench runs the fixed benchmark matrix (sizes × recursion
// levels × worker counts) and writes a BENCH_<k>.json document —
// git SHA, go version, GOMAXPROCS, and per-cell ns/op, classical
// GFLOPS, allocs/op, p99 latency, and sampled numerical error — so
// the repository carries a durable, diffable performance trajectory.
//
// Usage:
//
//	bench                                  # run default matrix, write BENCH_<k>.json
//	bench -quick -o /tmp/now.json          # seconds-scale smoke matrix
//	bench -compare BENCH_0.json            # run, then exit 1 on regressions vs baseline
//	bench -replay new.json -compare old.json  # diff two existing files, no benchmarking
//
// A second mode drives the shape autotuner (internal/tune) offline:
//
//	bench -tune 1536x512x1536,768x768x3072 -tune-out tune.json
//
// runs candidate enumeration and measurement per shape, prints a
// tuned-vs-default table, and writes a versioned tuning profile that
// `abmmd -tune-profile` loads at boot. -tune-min-gain/-tune-min-gained
// turn the run into a gate: exit 1 unless enough shapes improved by
// enough percent (what `make tune-experiments` pins).
//
// Bad flags exit with status 2 and usage text, as does comparing runs
// made at different GOMAXPROCS (make bench-compare runs at the
// baseline's); runtime failures and detected regressions exit with
// status 1.
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"abmm"
	"abmm/internal/bench"
	"abmm/internal/core"
	"abmm/internal/tune"
)

func main() {
	log.SetFlags(0)
	var (
		algName   = flag.String("alg", "", "algorithm name (default: the matrix default, 'ours')")
		sizes     = flag.String("sizes", "", "comma-separated matrix dimensions (default 256,512)")
		levels    = flag.String("levels", "", "comma-separated recursion depths (default 1,2)")
		workers   = flag.String("workers", "", "comma-separated worker counts, 0 = GOMAXPROCS (default 1,0)")
		reps      = flag.Int("reps", 0, "timed repetitions per cell, best-of reported (default 5)")
		out       = flag.String("o", "", "output path (default: BENCH_<k>.json, first unused k in the current directory)")
		compare   = flag.String("compare", "", "baseline BENCH json; flag regressions beyond -threshold and exit 1")
		replay    = flag.String("replay", "", "skip benchmarking and load results from this BENCH json (diff two files with -compare)")
		threshold = flag.Float64("threshold", bench.DefaultThreshold, "relative ns/op slowdown tolerated as noise")
		quick     = flag.Bool("quick", false, "use the seconds-scale smoke matrix (64,128 × 1 level × 1 worker)")
		kernel    = flag.String("kernel-sizes", "", "comma-separated base-case sizes for raw kernel cells (default 256,1024,4096; 'none' disables)")

		tuneShapes    = flag.String("tune", "", "comma-separated MxKxN shapes: run the shape autotuner instead of the benchmark matrix")
		tuneOut       = flag.String("tune-out", "tune-profile.json", "tuning profile output path (with -tune)")
		tuneBudget    = flag.Duration("tune-budget", 0, "measurement budget per shape (0 = unbounded)")
		tuneAlgs      = flag.String("tune-algs", "", "comma-separated candidate algorithms (default: the tuner's catalog subset)")
		tuneMinBase   = flag.Int("tune-min-base", 0, "smallest base-block dimension candidates may recurse to (0 = 96)")
		tuneMaxLevels = flag.Int("tune-max-levels", 0, "deepest recursion candidates may try (0 = 3)")
		tuneMinGain   = flag.Float64("tune-min-gain", 0, "percent speedup over the default plan a shape must reach to count for -tune-min-gained")
		tuneMinGained = flag.Int("tune-min-gained", 0, "exit 1 unless at least this many tuned shapes reached -tune-min-gain percent")
	)
	flag.Parse()

	if flag.NArg() > 0 {
		usageErr("unexpected arguments: %q", flag.Args())
	}
	if *reps < 0 {
		usageErr("-reps must be positive (0 means: use the default), got %d", *reps)
	}
	if *threshold <= 0 {
		usageErr("-threshold must be positive, got %g", *threshold)
	}
	if *replay != "" && (*algName != "" || *sizes != "" || *levels != "" || *workers != "" || *reps != 0 || *quick || *kernel != "") {
		usageErr("-replay loads existing results; matrix flags (-alg/-sizes/-levels/-workers/-reps/-quick/-kernel-sizes) do not apply")
	}
	if *tuneShapes != "" {
		if *replay != "" || *compare != "" || *sizes != "" || *levels != "" || *workers != "" || *quick || *kernel != "" {
			usageErr("-tune is its own mode; benchmark-matrix flags (-replay/-compare/-sizes/-levels/-workers/-quick/-kernel-sizes) do not apply")
		}
		runTune(*tuneShapes, *tuneOut, *algName, *tuneAlgs, *tuneBudget, *reps,
			*tuneMinBase, *tuneMaxLevels, *tuneMinGain, *tuneMinGained)
		return
	}

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	if *algName != "" {
		cfg.Alg = *algName
		if _, err := abmm.Lookup(cfg.Alg); err != nil {
			usageErr("%v", err)
		}
	}
	if *sizes != "" {
		cfg.Sizes = parseInts("sizes", *sizes, 1)
	}
	if *levels != "" {
		cfg.Levels = parseInts("levels", *levels, 0)
	}
	if *workers != "" {
		cfg.Workers = parseInts("workers", *workers, 0)
	}
	if *reps > 0 {
		cfg.Reps = *reps
	}
	if *kernel == "none" {
		cfg.KernelSizes = nil
	} else if *kernel != "" {
		cfg.KernelSizes = parseInts("kernel-sizes", *kernel, 1)
	}

	var f, base *bench.File
	var err error
	if *compare != "" {
		if base, err = bench.ReadFile(*compare); err != nil {
			log.Fatal(err)
		}
		if *replay == "" {
			sameProcs(base, *compare, runtime.GOMAXPROCS(0)) // before the long run
		}
	}
	if *replay != "" {
		if f, err = bench.ReadFile(*replay); err != nil {
			log.Fatal(err)
		}
	} else {
		if f, err = bench.Run(cfg); err != nil {
			log.Fatal(err)
		}
		path := *out
		if path == "" {
			path = bench.AutoPath(".")
		}
		if err := f.WriteFile(path); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "bench: wrote %s (%d cells, commit %s)\n", path, len(f.Cells), f.GitSHA)
		for _, c := range f.Cells {
			fmt.Printf("%-24s %12.0f ns/op %8.2f GFLOPS %6.1f allocs/op  p99 %.3gs  err %.3g (%.3gx bound)\n",
				c.Key(), c.NsPerOp, c.GFLOPS, c.AllocsPerOp, c.P99Seconds, c.MaxRelError, c.BoundRatio)
		}
	}

	if base != nil {
		sameProcs(base, *compare, f.GOMAXPROCS)
		regs := bench.Compare(base, f, *threshold)
		if len(regs) > 0 {
			for _, r := range regs {
				fmt.Fprintf(os.Stderr, "bench: REGRESSION %s\n", r)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bench: no regressions vs %s (%d cells, threshold %.0f%%)\n",
			*compare, len(base.Cells), *threshold*100)
	}
}

// sameProcs exits with status 2 unless the run being compared used the
// baseline's GOMAXPROCS. Cells with workers=0 run GOMAXPROCS workers, so
// across a mismatch they run a different number of them — and past one
// worker the kernel's parallel branch, which allocates by design — and
// every delta would measure the host, not the change.
func sameProcs(base *bench.File, path string, procs int) {
	if procs != base.GOMAXPROCS {
		fmt.Fprintf(os.Stderr, "bench: %s was recorded at gomaxprocs %d, the compared run at gomaxprocs %d; compare runs made at the same GOMAXPROCS (here GOMAXPROCS=%d)\n",
			path, base.GOMAXPROCS, procs, base.GOMAXPROCS)
		os.Exit(2)
	}
}

// runTune is the -tune mode: offline shape autotuning. For each shape
// it enumerates and measures candidates (internal/tune), prints one
// tuned-vs-default table row, and finally writes the versioned tuning
// profile `abmmd -tune-profile` consumes. The -tune-min-gain /
// -tune-min-gained pair turns the run into an acceptance gate.
func runTune(shapes, out, algName, algsCSV string, budget time.Duration, reps, minBase, maxLevels int, minGain float64, minGained int) {
	defName := algName
	if defName == "" {
		defName = "ours"
	}
	def, err := abmm.Lookup(defName)
	if err != nil {
		usageErr("%v", err)
	}
	cfg := tune.Config{
		Reps: reps, MinBase: minBase, MaxLevels: maxLevels,
		Logger: slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
	}
	if algsCSV != "" {
		for _, name := range strings.Split(algsCSV, ",") {
			if name = strings.TrimSpace(name); name != "" {
				if _, err := abmm.Lookup(name); err != nil {
					usageErr("%v", err)
				}
				cfg.Algorithms = append(cfg.Algorithms, name)
			}
		}
	}
	tn := tune.New(cfg)

	fmt.Printf("%-16s %-22s %14s %-22s %14s %9s\n",
		"shape", "default", "ns/op", "tuned", "ns/op", "gain")
	gained := 0
	for _, sh := range strings.Split(shapes, ",") {
		m, k, n := parseShape(sh)
		e, err := tn.Tune(def, core.Options{}, m, k, n, budget)
		if err != nil {
			log.Fatal(err)
		}
		tn.Install(&tune.Profile{Schema: tune.Schema, Cells: []tune.Entry{e}})
		fmt.Printf("%-16s %-22s %14d %-22s %14d %+8.1f%%\n",
			fmt.Sprintf("%dx%dx%d", m, k, n),
			e.DefaultPlan, e.DefaultNsPerOp,
			fmt.Sprintf("%s/L%d/%s", e.Alg, e.Levels, e.Schedule), e.NsPerOp,
			e.GainPercent())
		if e.GainPercent() >= minGain && minGain > 0 {
			gained++
		}
	}
	if err := tn.Profile().WriteFile(out); err != nil {
		log.Fatal(err)
	}
	p := tn.Profile()
	fmt.Fprintf(os.Stderr, "bench: wrote tuning profile %s (%d cells, commit %s)\n", out, len(p.Cells), p.GitSHA)
	if minGained > 0 && gained < minGained {
		fmt.Fprintf(os.Stderr, "bench: TUNE GATE FAILED: %d shape(s) gained >= %.0f%%, need %d\n", gained, minGain, minGained)
		os.Exit(1)
	}
	if minGained > 0 {
		fmt.Fprintf(os.Stderr, "bench: tune gate passed: %d shape(s) gained >= %.0f%% (need %d)\n", gained, minGain, minGained)
	}
}

// parseShape parses one "MxKxN" (or "N" shorthand for NxNxN) operand
// shape.
func parseShape(s string) (m, k, n int) {
	parts := strings.Split(strings.TrimSpace(s), "x")
	dims := make([]int, 0, 3)
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			usageErr("-tune shapes must be MxKxN with positive dimensions, got %q", s)
		}
		dims = append(dims, v)
	}
	switch len(dims) {
	case 1:
		return dims[0], dims[0], dims[0]
	case 3:
		return dims[0], dims[1], dims[2]
	}
	usageErr("-tune shapes must be MxKxN (or a single N for square), got %q", s)
	panic("unreachable")
}

// parseInts parses a comma-separated flag value; anything non-numeric
// or below min is a usage error.
func parseInts(name, s string, min int) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < min {
			usageErr("-%s must be comma-separated integers >= %d, got %q", name, min, s)
		}
		out = append(out, v)
	}
	return out
}

// usageErr reports a flag error with usage text and exits with status
// 2 (the conventional flag-error exit code; runtime errors exit 1).
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n\n", args...)
	flag.Usage()
	os.Exit(2)
}
