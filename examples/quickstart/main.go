// Quickstart: multiply two matrices with the paper's fast-and-stable
// algorithm and check the result against the classical kernel.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"abmm"
)

func main() {
	const n = 1024

	// Build random operands (deterministic seed for reproducibility).
	a := abmm.NewMatrix(n, n)
	b := abmm.NewMatrix(n, n)
	rng := abmm.Rand(42)
	a.FillUniform(rng, -1, 1)
	b.FillUniform(rng, -1, 1)

	// Look up the paper's ⟨2,2,2;7⟩ alternative basis algorithm:
	// leading coefficient 5 (fastest possible for a 2×2 base case) and
	// stability factor 12 (most accurate in class).
	alg, err := abmm.Lookup("ours")
	if err != nil {
		log.Fatal(err)
	}

	// Multiply. AutoLevels recurses while every base-block dimension
	// stays ≥ 512, so this 1024² product takes one level.
	c := abmm.Multiply(alg, a, b, abmm.Options{Levels: abmm.AutoLevels})

	// Verify against the classical kernel.
	want := abmm.MultiplyClassical(a, b, 0)
	maxDiff := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := c.At(i, j) - want.At(i, j)
			if d < 0 {
				d = -d
			}
			if d > maxDiff {
				maxDiff = d
			}
		}
	}

	info := abmm.InfoFor(alg)
	fmt.Printf("algorithm:       %s ⟨%d,%d,%d;%d⟩\n", info.Name, info.M0, info.K0, info.N0, info.R)
	fmt.Printf("leading coeff:   %.0f (vs 7 for Strassen, 6 for Winograd)\n", info.LeadingCoefficient)
	fmt.Printf("stability E:     %.0f (vs 18 for Winograd)\n", info.StabilityFactor)
	fmt.Printf("max |Δ| vs classical at n=%d: %.3e\n", n, maxDiff)
	fmt.Printf("theoretical bound f(n)·ε·‖A‖‖B‖ ≈ %.3e\n",
		abmm.ErrorBound(alg, n)*0x1p-53*a.MaxNorm()*b.MaxNorm())
}
