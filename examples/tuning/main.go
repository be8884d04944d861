// Tuning study: how recursion depth and parallelism affect runtime —
// the practical knobs behind the paper's Figure 2(B).
//
//	go run ./examples/tuning
package main

import (
	"fmt"
	"log"
	"os"
	"runtime"
	"text/tabwriter"
	"time"

	"abmm"
)

func main() {
	const n = 1024
	a, b := abmm.NewMatrix(n, n), abmm.NewMatrix(n, n)
	rng := abmm.Rand(3)
	a.FillUniform(rng, -1, 1)
	b.FillUniform(rng, -1, 1)

	alg, err := abmm.Lookup("ours")
	if err != nil {
		log.Fatal(err)
	}
	classical := median(func() { abmm.MultiplyClassical(a, b, 0) })

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "configuration\ttime\tvs classical (%v)\n", classical.Round(time.Millisecond))

	report := func(label string, opt abmm.Options) {
		d := median(func() { abmm.Multiply(alg, a, b, opt) })
		fmt.Fprintf(w, "%s\t%v\t%.2fx\n", label, d.Round(time.Millisecond),
			float64(d)/float64(classical))
	}
	for _, l := range []int{0, 1, 2, 3, 4} {
		report(fmt.Sprintf("levels=%d", l), abmm.Options{Levels: l})
	}
	report("auto levels", abmm.Options{Levels: abmm.AutoLevels})
	report("levels=3 single-threaded", abmm.Options{Levels: 3, Workers: 1})
	w.Flush()
	fmt.Printf("\nGOMAXPROCS=%d; deeper recursion trades O(n³) work for O(n²) additions,\n", runtime.GOMAXPROCS(0))
	fmt.Println("so the optimal depth grows with n (paper Fig. 2(B)).")
}

func median(fn func()) time.Duration {
	times := make([]time.Duration, 3)
	for i := range times {
		start := time.Now()
		fn()
		times[i] = time.Since(start)
	}
	if times[0] > times[1] {
		times[0], times[1] = times[1], times[0]
	}
	if times[1] > times[2] {
		times[1], times[2] = times[2], times[1]
	}
	if times[0] > times[1] {
		times[0], times[1] = times[1], times[0]
	}
	return times[1]
}
