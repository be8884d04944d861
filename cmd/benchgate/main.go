// Command benchgate judges a change against its parent on the
// repository benchmark. Run from the head checkout's root, it reads
// BENCHMARK.json and runs its command in the base checkout and here in
// alternation, five pairs of --seconds 3 --trace 0 runs per workload,
// the same seed on both sides of a pair and the order flipped each pair:
//
//	go run ./cmd/benchgate <base-checkout>   # make bench-compare
//
// It prints each end-to-end metric's median [Q1, Q3] per side, the
// change and a verdict. It exits 1 when a run fails, hangs or prints no
// result line, when correctness or the failed share of operations gets
// worse, when a metric is missing or not finite, or when the head's
// median is worse than the parent's by more than the metric's bound and
// lies outside the parent's interquartile range; 2 on a usage error.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"
)

const (
	pairs      = 5
	seconds    = 3
	runTimeout = 5 * time.Minute // a cold build of one side plus its run takes under a minute
)

// config is the part of BENCHMARK.json the gate reads.
type config struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

// metric is one end-to-end metric: which direction is better and the
// relative move of the median it tolerates.
type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`
}

// run is one benchmark run: its result line, or the error that left it
// without one.
type run struct {
	err               error
	correct           bool
	attempted, failed int
	metrics           map[string]float64
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchgate <base-checkout>")
		os.Exit(2)
	}
	var cfg config
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &cfg)
	}
	if err != nil || len(cfg.Command) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: BENCHMARK.json names no command:", err)
		os.Exit(2)
	}
	dirs := [2]string{os.Args[1], "."} // parent, head
	start := time.Now()
	pass := true
	for _, w := range cfg.Workloads {
		var runs [2][]run
		for i := range pairs {
			order := []int{0, 1}
			if i%2 == 1 {
				order = []int{1, 0}
			}
			for _, side := range order {
				runs[side] = append(runs[side], execRun(cfg.Command, dirs[side], w.Name, strconv.Itoa(i+1)))
			}
		}
		lines, ok := decide(cfg.EndToEnd, runs[0], runs[1])
		for _, l := range lines {
			fmt.Printf("%-12s %s\n", w.Name, l)
		}
		pass = pass && ok
	}
	fmt.Printf("benchgate: pass=%t against %s (%d workloads × %d pairs, %s)\n",
		pass, dirs[0], len(cfg.Workloads), pairs, time.Since(start).Round(time.Second))
	if !pass {
		os.Exit(1)
	}
}

// execRun runs the benchmark command once in dir and parses the last
// line of its standard output.
func execRun(command []string, dir, workload, seed string) run {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	args := append(slices.Clone(command[1:]), "--workload", workload, "--seed", seed,
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd := exec.CommandContext(ctx, command[0], args...)
	cmd.Dir, cmd.Stderr, cmd.WaitDelay = dir, os.Stderr, 10*time.Second
	out, err := cmd.Output()
	var r run
	if ctx.Err() != nil {
		err = fmt.Errorf("no result after %s", runTimeout)
	}
	if err == nil {
		r, err = parseResult(out)
	}
	if err != nil {
		r.err = fmt.Errorf("%s seed %s in %s: %w", workload, seed, dir, err)
	}
	return r
}

// parseResult reads the result line, the last line of a run's standard
// output.
func parseResult(out []byte) (run, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := lines[len(lines)-1]
	var res struct {
		Correct           *bool
		Attempted, Failed int
		Metrics           map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil || res.Correct == nil {
		return run{}, fmt.Errorf("no result line in %q", last)
	}
	r := run{correct: *res.Correct, attempted: res.Attempted, failed: res.Failed,
		metrics: make(map[string]float64, len(res.Metrics))}
	for name, m := range res.Metrics {
		r.metrics[name] = m.Value
	}
	return r, nil
}

// decide compares one workload's runs of the parent and the head and
// returns the report lines and whether the head passes.
func decide(metrics []metric, parent, head []run) ([]string, bool) {
	var lines []string
	for _, r := range append(slices.Clone(parent), head...) {
		if r.err != nil {
			lines = append(lines, fmt.Sprintf("FAIL: %v", r.err))
		}
	}
	if len(lines) > 0 {
		return lines, false
	}
	pc, pf := outcome(parent)
	hc, hf := outcome(head)
	pass := hc >= pc && hf <= pf
	lines = append(lines, fmt.Sprintf("correct runs %d → %d, failed share %.3g → %.3g  ok=%t",
		pc, hc, pf, hf, pass))
	for _, m := range metrics {
		p, h := values(parent, m.Name), values(head, m.Name)
		if p == nil || h == nil {
			lines = append(lines, fmt.Sprintf("FAIL: %s missing or not finite", m.Name))
			pass = false
			continue
		}
		pq, hq := quartiles(p), quartiles(h)
		worse := hq[1] > pq[1]*(1+m.Bound) && hq[1] > pq[2] // lower is better
		if m.Better == "higher" {
			worse = hq[1] < pq[1]*(1-m.Bound) && hq[1] < pq[0]
		}
		verdict := "ok"
		if worse {
			verdict = fmt.Sprintf("FAIL (worse than its %.0f%% bound and outside the parent's IQR)", 100*m.Bound)
			pass = false
		}
		lines = append(lines, fmt.Sprintf("%-16s parent %.4g [%.4g, %.4g]  head %.4g [%.4g, %.4g]  %+.1f%%  %s",
			m.Name, pq[1], pq[0], pq[2], hq[1], hq[0], hq[2], 100*(hq[1]/pq[1]-1), verdict))
	}
	return lines, pass
}

// outcome returns how many runs were correct and the share of
// operations that failed over all runs; a side that attempted nothing
// counts as all failed.
func outcome(runs []run) (correct int, failedShare float64) {
	attempted, failed := 0, 0
	for _, r := range runs {
		if r.correct {
			correct++
		}
		attempted += r.attempted
		failed += r.failed
	}
	if attempted == 0 {
		return correct, 1
	}
	return correct, float64(failed) / float64(attempted)
}

// values collects one metric over runs, or returns nil when a run lacks
// it or it is not finite.
func values(runs []run, name string) []float64 {
	var vs []float64
	for _, r := range runs {
		v, ok := r.metrics[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil
		}
		vs = append(vs, v)
	}
	return vs
}

// quartiles returns Q1, the median and Q3 of vs, interpolating linearly
// between order statistics.
func quartiles(vs []float64) [3]float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	var q [3]float64
	for i, p := range []float64{0.25, 0.5, 0.75} {
		x := p * float64(len(s)-1)
		lo := int(x)
		hi := min(lo+1, len(s)-1)
		q[i] = s[lo] + (x-float64(lo))*(s[hi]-s[lo])
	}
	return q
}
