// Command abmm multiplies matrices with a chosen algorithm and reports
// timing, a per-phase observability breakdown, and accuracy against the
// quad-precision classical reference.
//
// Usage:
//
//	abmm -alg ours -n 2048 -levels auto
//	abmm -alg strassen -n 1024 -levels 3 -check -dist positive
//	abmm -alg ours -n 2048 -scale repeated-o-i
//	abmm -alg ours -n 1024 -levels 2 -stats-json          # machine-readable stats
//	abmm -alg ours -n 1024 -levels 2 -trace trace.out     # go tool trace trace.out
//	abmm -alg ours -n 1024 -levels 2 -pprof cpu.out       # profile with phase labels
//	abmm -alg ours -n 4096 -listen :8080                  # /metrics, /debug/vars, /debug/pprof
//
// Bad flags and flag combinations exit with status 2 and usage text;
// runtime failures (unwritable trace/profile files) exit with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"

	"abmm"
)

func main() {
	log.SetFlags(0)
	var (
		algName   = flag.String("alg", "ours", "algorithm name (see algoinfo)")
		n         = flag.Int("n", 1024, "matrix dimension")
		m         = flag.Int("m", 0, "rows of A (default n)")
		k         = flag.Int("k", 0, "cols of A / rows of B (default n)")
		levels    = flag.String("levels", "auto", "recursion steps or 'auto'")
		workers   = flag.Int("workers", 0, "parallelism (0 = GOMAXPROCS)")
		dist      = flag.String("dist", "symmetric", "input distribution: symmetric | positive | adv-outside | adv-inside")
		scale     = flag.String("scale", "none", "diagonal scaling: none | outside | inside | outside-inside | inside-outside | repeated-o-i")
		check     = flag.Bool("check", true, "measure error vs quad-precision classical reference")
		reps      = flag.Int("reps", 3, "timing repetitions (best reported)")
		seed      = flag.Uint64("seed", 1, "input seed")
		statsJSON = flag.Bool("stats-json", false, "emit all results as one JSON document on stdout (suppresses human output)")
		traceFile = flag.String("trace", "", "write a runtime/trace of the run to this file (open with 'go tool trace')")
		pprofFile = flag.String("pprof", "", "write a CPU profile of the run to this file, tagging samples with per-phase pprof labels")
		listen    = flag.String("listen", "", "serve Prometheus /metrics, /debug/vars, and /debug/pprof on this address for the duration of the run")
	)
	flag.Parse()

	if flag.NArg() > 0 {
		usageErr("unexpected arguments: %q", flag.Args())
	}
	if *n <= 0 {
		usageErr("-n must be positive, got %d", *n)
	}
	if *m < 0 || *k < 0 {
		usageErr("-m and -k must be non-negative (0 means: use -n), got -m=%d -k=%d", *m, *k)
	}
	if *reps < 1 {
		usageErr("-reps must be at least 1, got %d", *reps)
	}
	if *workers < 0 {
		usageErr("-workers must be non-negative (0 = GOMAXPROCS), got %d", *workers)
	}

	opt := abmm.Options{Workers: *workers}
	switch {
	case *levels == "auto":
		opt.Levels = abmm.AutoLevels
	default:
		l, err := strconv.Atoi(*levels)
		if err != nil || l < 0 {
			usageErr("-levels must be 'auto' or a non-negative integer, got %q", *levels)
		}
		opt.Levels = l
	}

	method, err := parseScale(*scale)
	if err != nil {
		usageErr("%v", err)
	}

	alg, err := abmm.Lookup(*algName)
	if err != nil {
		usageErr("%v", err)
	}

	rows, inner := *n, *n
	if *m > 0 {
		rows = *m
	}
	if *k > 0 {
		inner = *k
	}
	a := abmm.NewMatrix(rows, inner)
	b := abmm.NewMatrix(inner, *n)
	rng := abmm.Rand(*seed)
	switch *dist {
	case "symmetric":
		a.FillUniform(rng, -1, 1)
		b.FillUniform(rng, -1, 1)
	case "positive":
		a.FillUniform(rng, 0, 1)
		b.FillUniform(rng, 0, 1)
	case "adv-outside", "adv-inside":
		if rows != inner || inner != *n {
			usageErr("adversarial distributions need square matrices (drop -m/-k or make them equal to -n)")
		}
		d := abmm.DistAdversarialOutside
		if *dist == "adv-inside" {
			d = abmm.DistAdversarialInside
		}
		abmm.FillPair(a, b, d, rng)
	default:
		usageErr("unknown distribution %q", *dist)
	}

	// Observability: one Collector aggregates every repetition (the
	// first, cold repetition includes plan compilation). With -pprof the
	// collector also tags goroutine labels so profile samples split by
	// pipeline phase.
	rec := abmm.NewCollector()
	rec.SetPprofLabels(*pprofFile != "")
	opt.Recorder = rec

	if *listen != "" {
		abmm.PublishStats("abmm", rec)
		srv, err := abmm.ServeStats(*listen, rec)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "abmm: serving metrics on %s\n", srv.URL())
	}

	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.Start(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			trace.Stop()
			f.Close()
		}()
	}
	if *pprofFile != "" {
		f, err := os.Create(*pprofFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	// Reuse one Multiplier across repetitions: the plan (depth, padding,
	// schedules, workspace) compiles on the first rep and later reps run
	// the warm, allocation-free path — which is also how a caller
	// embedding the library should time it.
	mu := abmm.NewMultiplier(alg, opt)
	c := abmm.NewMatrix(rows, *n)
	var best time.Duration
	for r := 0; r < *reps; r++ {
		start := time.Now()
		if method == abmm.ScaleNone {
			mu.MultiplyInto(c, a, b)
		} else {
			c = abmm.MultiplyScaled(alg, a, b, opt, method)
		}
		if d := time.Since(start); r == 0 || d < best {
			best = d
		}
	}

	info := abmm.InfoFor(alg)
	flops := 2 * float64(rows) * float64(inner) * float64(*n)
	out := runStats{
		Algorithm: info.Name,
		Base:      fmt.Sprintf("⟨%d,%d,%d;%d⟩", info.M0, info.K0, info.N0, info.R),
		M:         rows, K: inner, N: *n,
		Levels:      mu.Levels(rows, inner, *n),
		Scale:       *scale,
		Reps:        *reps,
		BestSeconds: best.Seconds(),
		GFLOPS:      flops / best.Seconds() / 1e9,
		Obs:         rec.Snapshot(),
	}
	if method == abmm.ScaleNone {
		cs := mu.Stats()
		out.Cache = &cs
	}
	if *check {
		ref := abmm.ReferenceProduct(a, b, *workers)
		maxAbs, maxRel := diff(c, ref)
		out.Error = &errorStats{MaxAbs: maxAbs, MaxRel: maxRel}
		// The plan's bound covers the operands it multiplied: a scaled
		// run multiplies scaled copies, so it reports none.
		if method == abmm.ScaleNone {
			bound := mu.Plan(rows, inner, *n).ErrorBound() * a.MaxNorm() * b.MaxNorm()
			out.Error.Bound = &bound
		}
	}

	if *statsJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("%s ⟨%d,%d,%d;%d⟩  %dx%dx%d  %v  (%.2f classical-equivalent GFLOP/s)\n",
		info.Name, info.M0, info.K0, info.N0, info.R, rows, inner, *n,
		best, out.GFLOPS)
	fmt.Println("stats:")
	if out.Cache != nil {
		fmt.Printf("  plan cache: %s\n", out.Cache)
	}
	fmt.Println(indent(out.Obs.Report(), "  "))
	if out.Error != nil {
		fmt.Printf("max abs error %.3e   max rel error %.3e", out.Error.MaxAbs, out.Error.MaxRel)
		if out.Error.Bound != nil {
			fmt.Printf("   bound f(K,L)·ε·‖A‖‖B‖ = %.3e", *out.Error.Bound)
		}
		fmt.Println()
	}
}

// runStats is the -stats-json document: run parameters, timing, the
// plan-cache state, the per-phase observability snapshot, and (with
// -check) the measured error.
type runStats struct {
	Algorithm   string           `json:"algorithm"`
	Base        string           `json:"base"`
	M           int              `json:"m"`
	K           int              `json:"k"`
	N           int              `json:"n"`
	Levels      int              `json:"levels"`
	Scale       string           `json:"scale"`
	Reps        int              `json:"reps"`
	BestSeconds float64          `json:"best_seconds"`
	GFLOPS      float64          `json:"classical_gflops"`
	Cache       *abmm.CacheStats `json:"plan_cache,omitempty"`
	Obs         abmm.Snapshot    `json:"obs"`
	Error       *errorStats      `json:"error,omitempty"`
}

// errorStats is the -check result. Bound is the compiled plan's
// ErrorBound() (the Theorem III.8 factor f(K,L)·ε that abmmd reports per
// request as X-Abmm-Error-Bound) times ‖A‖·‖B‖ in max norms.
type errorStats struct {
	MaxAbs float64  `json:"max_abs"`
	MaxRel float64  `json:"max_rel"`
	Bound  *float64 `json:"bound,omitempty"`
}

// usageErr reports a flag error with usage text and exits with status 2
// (the conventional flag-error exit code; runtime errors exit 1).
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "abmm: "+format+"\n\n", args...)
	flag.Usage()
	os.Exit(2)
}

func indent(s, prefix string) string {
	return prefix + strings.ReplaceAll(s, "\n", "\n"+prefix)
}

func diff(a, b *abmm.Matrix) (maxAbs, maxRel float64) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			d := a.At(i, j) - b.At(i, j)
			if d < 0 {
				d = -d
			}
			if d > maxAbs {
				maxAbs = d
			}
			if r := b.At(i, j); r != 0 {
				rel := d / abs(r)
				if rel > maxRel {
					maxRel = rel
				}
			}
		}
	}
	return maxAbs, maxRel
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func parseScale(s string) (abmm.ScalingMethod, error) {
	switch s {
	case "none":
		return abmm.ScaleNone, nil
	case "outside":
		return abmm.ScaleOutside, nil
	case "inside":
		return abmm.ScaleInside, nil
	case "outside-inside":
		return abmm.ScaleOutsideInside, nil
	case "inside-outside":
		return abmm.ScaleInsideOutside, nil
	case "repeated-o-i":
		return abmm.ScaleRepeatedOI, nil
	}
	return abmm.ScaleNone, fmt.Errorf("unknown scaling method %q", s)
}
