package experiments

import (
	"fmt"

	"abmm/internal/algos"
	"abmm/internal/comm"
	"abmm/internal/core"
	"abmm/internal/matrix"
	"abmm/internal/obs"
	"abmm/internal/stability"
)

// TableI reproduces Table I: arithmetic costs and error bounds of
// ⟨2,2,2;7⟩-algorithms. Every number is computed from the exact
// coefficient data — the leading coefficient from the CSE-scheduled
// addition counts, the n²·log n transform coefficient from the basis
// nonzeros, and the error bound (1 + Q·log₂n)·n^{log₂E} from the
// stability analysis.
func TableI() *Table {
	t := &Table{
		Title:  "Table I: arithmetic costs and error bounds of ⟨2,2,2;7⟩-algorithms",
		Header: []string{"algorithm", "arithmetic cost", "error bound", "E", "Q"},
	}
	for _, alg := range fig2Algorithms() {
		info := costString(alg)
		e := stability.FactorFloat(alg)
		// The paper's Table I quotes the bilinear prefactor Q_B for
		// standard-basis rows and the Definition III.4 prefactor for
		// alternative basis rows; match that convention.
		q := stability.Prefactor(alg)
		if !alg.IsAltBasis() {
			q = stability.PrefactorBilinear(alg.Spec.U, alg.Spec.V, alg.Spec.W)
		}
		bound := fmt.Sprintf("(1+%d·log2 n)·n^log2(%.0f)", q, e)
		t.Rows = append(t.Rows, []string{alg.Name, info, bound, fmt.Sprintf("%.0f", e), fmt.Sprintf("%d", q)})
	}
	t.Notes = append(t.Notes,
		"paper: strassen (1+8log₂n)n^log₂12, 7n^2.81−6n²; winograd (1+10log₂n)n^log₂18, 6n^2.81−5n²;",
		"KS (1+16log₂n)n^log₂18, +3n²log₂n; SV +3/2·n²log₂n; ours (1+15log₂n)n^log₂12, +9/4·n²log₂n",
	)
	return t
}

func costString(alg *algos.Algorithm) string {
	lead := stability.LeadingCoefficient(alg)
	s := fmt.Sprintf("%.0fn^log2(7) - %.0fn²", lead, lead-1)
	ta := 0
	if alg.Phi != nil {
		ta += alg.Phi.Additions()
	}
	if alg.Psi != nil {
		ta += alg.Psi.Additions()
	}
	if alg.Nu != nil {
		ta += alg.Nu.Transposed().Additions()
	}
	if ta > 0 {
		s += fmt.Sprintf(" + %d/4·n²·log2 n", ta)
	}
	return s
}

// TableII reproduces Table II: standard vs alternative basis versions
// of a sample of algorithms — additions, leading coefficients and
// error bounds. The ⟨3,2,3⟩/⟨4,4,2⟩/⟨3,4,5⟩ rows use this library's
// block-composed substitutes (see DESIGN.md §4): published coefficient
// tables for the originals are unavailable offline, so the rows compare
// each composed algorithm against its machine-derived alternative basis
// (higher-dimension) version — the same speed-up-at-equal-stability
// claim the paper's Table II makes.
func TableII() *Table {
	t := &Table{
		Title: "Table II: algorithms and their alternative basis versions",
		Header: []string{"class", "adds(std)", "adds(alt)", "lead(std)", "lead(alt)",
			"E(std)", "E(alt)", "Q(std)", "Q(alt)"},
	}
	addRow := func(label string, std, alt *algos.Algorithm) {
		t.Rows = append(t.Rows, []string{
			label,
			fmt.Sprintf("%d", std.Spec.TotalScheduledAdditions()),
			fmt.Sprintf("%d", alt.Spec.TotalScheduledAdditions()),
			fmt.Sprintf("%.2f", stability.LeadingCoefficient(std)),
			fmt.Sprintf("%.2f", stability.LeadingCoefficient(alt)),
			fmt.Sprintf("%.0f", stability.FactorFloat(std)),
			fmt.Sprintf("%.0f", stability.FactorFloat(alt)),
			fmt.Sprintf("%d", stability.Prefactor(std)),
			fmt.Sprintf("%d", stability.Prefactor(alt)),
		})
	}
	addRow("<2,2,2;7>", algos.Strassen(), algos.Ours())
	addRow("<3,3,3;23>", algos.Laderman(), algos.LadermanAlt())
	for _, c := range composedPairs() {
		addRow(c.label, c.std, c.alt)
	}
	t.Notes = append(t.Notes,
		"alt-basis preserves E (Corollary III.9) while cutting additions; Q grows modestly",
	)
	return t
}

type composedPair struct {
	label    string
	std, alt *algos.Algorithm
}

// composedPairs builds the larger-base-case sample via Kronecker
// composition and derives their alternative basis versions.
func composedPairs() []composedPair {
	var out []composedPair
	add := func(label string, std *algos.Algorithm) {
		alt, err := algos.HigherDim(std, 0)
		if err != nil {
			panic(err)
		}
		out = append(out, composedPair{label, std, alt})
	}
	k442, err := algos.Kronecker(algos.Strassen(), algos.Classical(2, 2, 1))
	if err != nil {
		panic(err)
	}
	add("<4,4,2;28>*", k442)
	k444, err := algos.Kronecker(algos.Strassen(), algos.Strassen())
	if err != nil {
		panic(err)
	}
	add("<4,4,4;49>*", k444)
	k632, err := algos.Kronecker(algos.Laderman(), algos.Classical(2, 1, 1))
	if err != nil {
		panic(err)
	}
	add("<6,3,3;46>*", k632)
	// Rectangular partition compositions (Winograd-based so the
	// operators share subexpressions for the decomposition to hoist).
	w223, err := algos.ComposeCols(algos.Winograd(), algos.Classical(2, 2, 1))
	if err != nil {
		panic(err)
	}
	add("<2,2,3;11>*", w223)
	w323, err := algos.ComposeRows(w223, algos.Classical(1, 2, 3))
	if err != nil {
		panic(err)
	}
	add("<3,2,3;17>*", w323)
	return out
}

// TableIII reproduces Table III: memory footprints and communication
// costs of the ⟨2,2,2;7⟩ algorithms from the analytic model, beside the
// scratch the engine actually holds: the arena high-water of one
// Workers-1 multiplication, measured when the table is built.
func TableIII() *Table {
	const n, levels = 256, 3
	t := &Table{
		Title: "Table III: communication costs (n/√M)^log2(7)·M leading term",
		Header: []string{"algorithm", "footprint", "IO leading coef", "transform IO coef",
			fmt.Sprintf("engine scratch n=%d,L=%d", n, levels)},
	}
	for _, alg := range fig2Algorithms() {
		m := comm.NewModel(alg)
		t.Rows = append(t.Rows, []string{
			alg.Name,
			fmt.Sprintf("%.2fn²", m.FootprintCoef),
			fmt.Sprintf("%.2f", m.LeadingIOCoef()),
			fmt.Sprintf("%.2f·n²·log2(n/√M)", m.TransformIOCoef),
			fmt.Sprintf("%.2fn²", engineScratch(alg, n, levels)),
		})
	}
	t.Notes = append(t.Notes,
		"paper constants: strassen 50.21, winograd 28.05, KS 23.37, SV/ours 18.82 (pebbling-optimized schedule)",
		"engine scratch: arena high-water of one core multiplication at one worker (deterministic); the caller's A, B and C come on top",
	)
	return t
}

// engineScratch returns the peak arena scratch of one n×n
// multiplication at the given depth and one worker, in units of n²
// float64 words.
func engineScratch(alg *algos.Algorithm, n, levels int) float64 {
	rec := obs.NewCollector()
	mu := core.New(alg, core.Options{Levels: levels, Workers: 1, Recorder: rec})
	mu.MultiplyInto(matrix.New(n, n), matrix.New(n, n), matrix.New(n, n))
	return float64(rec.Snapshot().Arena.HighWaterBytes) / 8 / float64(n*n)
}
