package experiments

import (
	"fmt"
	"time"

	"abmm/internal/algos"
	"abmm/internal/core"
	"abmm/internal/dd"
	"abmm/internal/kernel"
	"abmm/internal/matrix"
	"abmm/internal/pool"
	"abmm/internal/scaling"
	"abmm/internal/stability"
)

// refProduct is the quad-precision classical reference.
func refProduct(a, b *matrix.Matrix, workers int) *matrix.Matrix {
	return dd.ReferenceProduct(a, b, workers)
}

// Fig1 reproduces Figure 1: the scatter of stability factor versus
// bilinear additions for a family of ⟨3,3,3;23⟩ algorithms, in the
// standard basis (empty markers) and their alternative basis versions
// (full markers). The family is Laderman's algorithm, its searched
// alternative basis, and orbit-generated variants with their
// higher-dimension decompositions; alternative basis versions keep the
// stability factor while cutting additions — the figure's claim.
func Fig1(p Params) *Table {
	t := &Table{
		Title:  "Figure 1: stability factor vs bilinear additions, ⟨3,3,3;23⟩ family",
		Header: []string{"algorithm", "basis", "additions", "stability E"},
	}
	add := func(alg *algos.Algorithm, basis string) {
		t.Rows = append(t.Rows, []string{
			alg.Name, basis,
			fmt.Sprintf("%d", alg.Spec.TotalScheduledAdditions()),
			fmt.Sprintf("%.6g", stability.FactorFloat(alg)),
		})
	}
	add(algos.Laderman(), "standard")
	add(algos.LadermanAlt(), "alternative")
	for _, member := range algos.OrbitFamily(algos.Laderman(), 6, p.Seed) {
		add(member, "standard")
		alt, err := algos.HigherDim(member, 0)
		if err != nil {
			continue
		}
		alt.Name = member.Name + "-alt"
		add(alt, "alternative")
	}
	t.Notes = append(t.Notes,
		"each alternative basis entry keeps its partner's E with fewer additions (Corollary III.9)")
	return t
}

// Fig2A reproduces Figure 2(A): runtime versus matrix size, normalized
// by the packed classical kernel (the library's DGEMM stand-in and the
// base case every algorithm recurses to).
func Fig2A(p Params) *Table {
	t := &Table{
		Title:  "Figure 2(A): runtime normalized to classical, by matrix size",
		Header: []string{"n", "algorithm", "time", "vs classical"},
	}
	w := p.workers()
	for _, n := range p.Fig2ASizes {
		a, b := matrix.New(n, n), matrix.New(n, n)
		matrix.FillPair(a, b, matrix.DistSymmetric, matrix.Rand(p.Seed))
		c := matrix.New(n, n)
		ar := pool.NewArena()
		classical := timeMedian(p.Reps, func() { kernel.Mul(c, a, b, kernel.Blocking{}, w, ar, nil) })
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", n), "classical", classical.String(), "1.000"})
		for _, alg := range fig2Algorithms() {
			// Reuse one plan across reps so the timing reflects the warm
			// multiplication path, not per-call setup.
			mu := core.New(alg, core.Options{Levels: core.AutoLevels, Workers: w})
			dur := timeMedian(p.Reps, func() { mu.MultiplyInto(c, a, b) })
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", n), alg.Name, dur.String(),
				fmt.Sprintf("%.3f", float64(dur)/float64(classical)),
			})
		}
	}
	return t
}

// Fig2B reproduces Figure 2(B): runtime at a fixed size versus the
// number of recursion steps.
func Fig2B(p Params) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Figure 2(B): runtime at n=%d by recursion steps", p.Fig2BSize),
		Header: append([]string{"levels"}, algNames(fig2Algorithms())...),
	}
	w := p.workers()
	n := p.Fig2BSize
	a, b := matrix.New(n, n), matrix.New(n, n)
	c := matrix.New(n, n)
	matrix.FillPair(a, b, matrix.DistSymmetric, matrix.Rand(p.Seed))
	for _, l := range p.Fig2BLevels {
		row := []string{fmt.Sprintf("%d", l)}
		for _, alg := range fig2Algorithms() {
			mu := core.New(alg, core.Options{Levels: l, Workers: w})
			dur := timeMedian(p.Reps, func() { mu.MultiplyInto(c, a, b) })
			row = append(row, dur.Round(time.Millisecond).String())
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig2C reproduces Figure 2(C): maximal absolute error over runs with
// Uniform(-1,1) inputs; Fig2D the same for Uniform(0,1) (Figure 2(D)).
func Fig2C(p Params) *Table { return figError(p, matrix.DistSymmetric, "2(C)") }

// Fig2D reproduces Figure 2(D).
func Fig2D(p Params) *Table { return figError(p, matrix.DistPositive, "2(D)") }

func figError(p Params, dist matrix.Dist, label string) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Figure %s: max abs error, n=%d, %d runs, %v", label, p.ErrorSize, p.ErrorRuns, dist),
		Header: []string{"algorithm", "levels", "max error", "E"},
	}
	w := p.workers()
	const levels = 3
	algs := fig2Algorithms()
	// One quad-precision reference per run, shared by every algorithm.
	maxErr := make([]float64, len(algs)+1)
	for run := 0; run < p.ErrorRuns; run++ {
		a, b := matrix.New(p.ErrorSize, p.ErrorSize), matrix.New(p.ErrorSize, p.ErrorSize)
		matrix.FillPair(a, b, dist, matrix.Rand(p.Seed+uint64(run)*7919))
		ref := refProduct(a, b, w)
		got := matrix.New(p.ErrorSize, p.ErrorSize)
		kernel.Mul(got, a, b, kernel.Blocking{}, w, pool.NewArena(), nil)
		if d := matrix.MaxAbsDiff(got, ref); d > maxErr[0] {
			maxErr[0] = d
		}
		for i, alg := range algs {
			c := core.Multiply(alg, a, b, core.Options{Levels: levels, Workers: w})
			if d := matrix.MaxAbsDiff(c, ref); d > maxErr[i+1] {
				maxErr[i+1] = d
			}
		}
	}
	t.Rows = append(t.Rows, []string{"classical", "0", fmt.Sprintf("%.3e", maxErr[0]), "-"})
	for i, alg := range algs {
		t.Rows = append(t.Rows, []string{alg.Name, fmt.Sprintf("%d", levels),
			fmt.Sprintf("%.3e", maxErr[i+1]), fmt.Sprintf("%.0f", stability.FactorFloat(alg))})
	}
	t.Notes = append(t.Notes,
		"paper: E=12 algorithms (strassen, ours) beat E=18 (winograd, alt-winograd) on U(-1,1);",
		"on U(0,1) errors correlate with operator nonzeros instead (winograd best)")
	return t
}

// Fig3 reproduces Figure 3: errors of ⟨3,3,3;23⟩ algorithm variants —
// standard, higher-dimension decomposed, alternative basis, and fully
// decomposed — at a fixed size with Uniform(-1,1) inputs, alongside
// their prefactors.
func Fig3(p Params) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Figure 3: errors of ⟨3,3,3;23⟩ decompositions, n=%d, %d runs", p.Fig3Size, p.Fig3Runs),
		Header: []string{"variant", "max error", "E", "Q"},
	}
	w := p.workers()
	lad := algos.Laderman()
	hidim, err := algos.HigherDim(lad, 4)
	if err != nil {
		panic(err)
	}
	fulldec, err := algos.FullDecomposition(lad)
	if err != nil {
		panic(err)
	}
	variants := []struct {
		label string
		alg   *algos.Algorithm
	}{
		{"standard", lad},
		{"higher-dim", hidim},
		{"alt-basis", algos.LadermanAlt()},
		{"full-dec", fulldec},
	}
	const levels = 2
	maxErr := make([]float64, len(variants))
	for run := 0; run < p.Fig3Runs; run++ {
		a, b := matrix.New(p.Fig3Size, p.Fig3Size), matrix.New(p.Fig3Size, p.Fig3Size)
		matrix.FillPair(a, b, matrix.DistSymmetric, matrix.Rand(p.Seed+uint64(run)*7919))
		ref := refProduct(a, b, w)
		for i, v := range variants {
			c := core.Multiply(v.alg, a, b, core.Options{Levels: levels, Workers: w})
			if d := matrix.MaxAbsDiff(c, ref); d > maxErr[i] {
				maxErr[i] = d
			}
		}
	}
	for i, v := range variants {
		t.Rows = append(t.Rows, []string{v.label,
			fmt.Sprintf("%.3e", maxErr[i]),
			fmt.Sprintf("%.6g", stability.FactorFloat(v.alg)),
			fmt.Sprintf("%d", stability.Prefactor(v.alg)),
		})
	}
	t.Notes = append(t.Notes,
		"all variants share E (Corollary III.9); the paper's errors order by the prefactor Q,",
		"but over this family's narrow Q band (15-20) these errors do not")
	return t
}

// Fig4 reproduces Figure 4: component-wise relative errors of
// Strassen's algorithm and its alternative basis version under each
// scaling method, for the three distributions of Section VI-C.
func Fig4(p Params) *Table {
	t := &Table{
		Title: fmt.Sprintf("Figure 4: relative error under scaling, n=%d, %d runs", p.Fig4Size, p.Fig4Runs),
		Header: []string{"distribution", "scaling", "strassen (std)", "ours (alt)",
			"ratio"},
	}
	w := p.workers()
	dists := []matrix.Dist{matrix.DistPositive, matrix.DistAdversarialOutside, matrix.DistAdversarialInside}
	const levels = 3
	std, alt := algos.Strassen(), algos.Ours()
	methods := scaling.Methods()
	for _, dist := range dists {
		errStd := make([]float64, len(methods))
		errAlt := make([]float64, len(methods))
		for run := 0; run < p.Fig4Runs; run++ {
			a, b := matrix.New(p.Fig4Size, p.Fig4Size), matrix.New(p.Fig4Size, p.Fig4Size)
			matrix.FillPair(a, b, dist, matrix.Rand(p.Seed+uint64(run)*104729))
			ref := refProduct(a, b, w)
			for mi, method := range methods {
				for _, side := range []struct {
					alg *algos.Algorithm
					acc []float64
				}{{std, errStd}, {alt, errAlt}} {
					c := scaling.Multiply(scaling.NewConfig(method), a, b, func(x, y *matrix.Matrix) *matrix.Matrix {
						return core.Multiply(side.alg, x, y, core.Options{Levels: levels, Workers: w})
					})
					if d := matrix.MaxRelDiff(c, ref); d > side.acc[mi] {
						side.acc[mi] = d
					}
				}
			}
		}
		for mi, method := range methods {
			ratio := "inf"
			if errStd[mi] > 0 {
				ratio = fmt.Sprintf("%.2f", errAlt[mi]/errStd[mi])
			}
			t.Rows = append(t.Rows, []string{dist.String(), method.String(),
				fmt.Sprintf("%.3e", errStd[mi]), fmt.Sprintf("%.3e", errAlt[mi]), ratio})
		}
	}
	t.Notes = append(t.Notes,
		"alt-basis errors stay within about 2x of standard-basis errors (Claim V.2 expects ≈ 1),",
		"except under inside-outside scaling of adversarial-vs-inside (see its ratio);",
		"inside scaling rescues distribution 2, outside rescues distribution 3, repeated O-I is safe everywhere")
	return t
}

func algNames(list []*algos.Algorithm) []string {
	out := make([]string, len(list))
	for i, a := range list {
		out[i] = a.Name
	}
	return out
}
