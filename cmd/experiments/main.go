// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments                     # run everything at default scale
//	experiments -exp fig2a,table1   # run a subset
//	experiments -paper              # run at the paper's sizes (slow)
//	experiments -workers 8 -seed 3
//
// Experiment names: table1 table2 table3 fig1 fig2a fig2b fig2c fig2d
// fig3 fig4 dist phases.
//
// Bad flags, unknown experiment names, and malformed size lists exit
// with status 2 and usage text (matching cmd/abmm and cmd/bench);
// runtime failures exit with status 1.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"abmm/internal/experiments"
)

func main() {
	log.SetFlags(0)
	var (
		expList = flag.String("exp", "all", "comma-separated experiments to run (or 'all')")
		paper   = flag.Bool("paper", false, "use the paper's experiment sizes (slow)")
		workers = flag.Int("workers", 0, "parallelism (0 = GOMAXPROCS)")
		seed    = flag.Uint64("seed", 1, "experiment seed")
		reps    = flag.Int("reps", 0, "timing repetitions (0 = preset default)")
		sizes   = flag.String("fig2a-sizes", "", "comma-separated matrix sizes for fig2a (overrides preset)")
	)
	flag.Parse()

	if flag.NArg() > 0 {
		usageErr("unexpected arguments: %q", flag.Args())
	}
	if *workers < 0 {
		usageErr("-workers must be non-negative (0 = GOMAXPROCS), got %d", *workers)
	}
	if *reps < 0 {
		usageErr("-reps must be non-negative (0 = preset default), got %d", *reps)
	}

	p := experiments.Default()
	if *paper {
		p = experiments.Paper()
	}
	p.Workers = *workers
	p.Seed = *seed
	if *reps > 0 {
		p.Reps = *reps
	}
	if *sizes != "" {
		p.Fig2ASizes = nil
		for _, tok := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || n <= 0 {
				usageErr("-fig2a-sizes must be comma-separated positive integers, got %q", *sizes)
			}
			p.Fig2ASizes = append(p.Fig2ASizes, n)
		}
	}

	runners := map[string]func() *experiments.Table{
		"table1": experiments.TableI,
		"table2": experiments.TableII,
		"table3": experiments.TableIII,
		"fig1":   func() *experiments.Table { return experiments.Fig1(p) },
		"fig2a":  func() *experiments.Table { return experiments.Fig2A(p) },
		"fig2b":  func() *experiments.Table { return experiments.Fig2B(p) },
		"fig2c":  func() *experiments.Table { return experiments.Fig2C(p) },
		"fig2d":  func() *experiments.Table { return experiments.Fig2D(p) },
		"fig3":   func() *experiments.Table { return experiments.Fig3(p) },
		"fig4":   func() *experiments.Table { return experiments.Fig4(p) },
		"dist":   func() *experiments.Table { return experiments.Dist(p) },
		"phases": func() *experiments.Table { return experiments.Phases(p) },
	}
	order := []string{"table1", "table2", "table3", "fig1", "fig2a", "fig2b", "fig2c", "fig2d", "fig3", "fig4", "dist", "phases"}

	selected := order
	if *expList != "all" {
		selected = strings.Split(*expList, ",")
	}
	for _, name := range selected {
		if _, ok := runners[strings.TrimSpace(name)]; !ok {
			usageErr("unknown experiment %q (have %v)", strings.TrimSpace(name), order)
		}
	}
	for _, name := range selected {
		fmt.Println(runners[strings.TrimSpace(name)]())
	}
}

// usageErr reports a flag error with usage text and exits with status
// 2 (the conventional flag-error exit code; runtime failures exit 1).
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n\n", args...)
	flag.Usage()
	os.Exit(2)
}
