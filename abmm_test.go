package abmm_test

import (
	"math"
	"testing"

	"abmm"
	"abmm/internal/matrix"
)

func TestLookupAndNames(t *testing.T) {
	names := abmm.Names()
	if len(names) < 6 {
		t.Fatalf("catalog too small: %v", names)
	}
	for _, n := range names {
		alg, err := abmm.Lookup(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if err := alg.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", n, err)
		}
	}
	if _, err := abmm.Lookup("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestLookupCaches(t *testing.T) {
	a1, _ := abmm.Lookup("strassen")
	a2, _ := abmm.Lookup("strassen")
	if a1 != a2 {
		t.Fatal("Lookup did not cache")
	}
}

func TestPublicMultiply(t *testing.T) {
	a := abmm.FromRows([][]float64{{1, 2}, {3, 4}})
	b := abmm.FromRows([][]float64{{5, 6}, {7, 8}})
	want := abmm.FromRows([][]float64{{19, 22}, {43, 50}})
	for _, name := range abmm.Names() {
		alg, _ := abmm.Lookup(name)
		got := abmm.Multiply(alg, a, b, abmm.Options{Levels: 1, Workers: 1})
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				if math.Abs(got.At(i, j)-want.At(i, j)) > 1e-12 {
					t.Fatalf("%s: c[%d][%d] = %g", name, i, j, got.At(i, j))
				}
			}
		}
	}
}

// TestMultiplyClassicalBitwiseEqualsNaive pins the public classical
// baseline to the triple-loop oracle at every worker count, across
// ragged tiles, two kc slices and three mc blocks, so what the examples
// and Figure 2 time against is the product the recursion's base case
// computes.
func TestMultiplyClassicalBitwiseEqualsNaive(t *testing.T) {
	for _, s := range []struct{ m, k, n int }{{1, 1, 1}, {17, 300, 9}, {257, 129, 130}} {
		a, b := abmm.NewMatrix(s.m, s.k), abmm.NewMatrix(s.k, s.n)
		a.FillUniform(abmm.Rand(uint64(s.m)), -1, 1)
		b.FillUniform(abmm.Rand(uint64(s.n)+1), -1, 1)
		want := abmm.NewMatrix(s.m, s.n)
		matrix.MulNaive(want, a, b)
		for _, workers := range []int{0, 1, 2} {
			if got := abmm.MultiplyClassical(a, b, workers); !matrix.Equal(got, want) {
				t.Errorf("%dx%dx%d workers=%d: MultiplyClassical differs bitwise from MulNaive (max diff %g)",
					s.m, s.k, s.n, workers, matrix.MaxAbsDiff(got, want))
			}
		}
	}
}

func TestPublicMultiplyLarger(t *testing.T) {
	const n = 100
	a, b := abmm.NewMatrix(n, n), abmm.NewMatrix(n, n)
	a.FillUniform(abmm.Rand(1), -1, 1)
	b.FillUniform(abmm.Rand(2), -1, 1)
	want := abmm.MultiplyClassical(a, b, 2)
	for _, name := range []string{"ours", "alt-winograd", "laderman-alt"} {
		alg, _ := abmm.Lookup(name)
		got := abmm.Multiply(alg, a, b, abmm.Options{Levels: 2, Workers: 2})
		max := 0.0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d := math.Abs(got.At(i, j) - want.At(i, j)); d > max {
					max = d
				}
			}
		}
		if max > 1e-10 {
			t.Errorf("%s: max diff %g", name, max)
		}
	}
}

func TestInfoForTableI(t *testing.T) {
	type row struct {
		name                        string
		leading, e                  float64
		bilinearAdds, transformAdds int
	}
	rows := []row{
		{"strassen", 7, 12, 18, 0},
		{"winograd", 6, 18, 15, 0},
		{"alt-winograd", 5, 18, 12, 6},
		{"ours", 5, 12, 12, 9},
	}
	for _, r := range rows {
		alg, _ := abmm.Lookup(r.name)
		info := abmm.InfoFor(alg)
		if math.Abs(info.LeadingCoefficient-r.leading) > 1e-9 {
			t.Errorf("%s: leading %g want %g", r.name, info.LeadingCoefficient, r.leading)
		}
		// Factors derive from exact rational arithmetic, so the table
		// values match bit-for-bit.
		//abmm:allow float-discipline
		if info.StabilityFactor != r.e {
			t.Errorf("%s: E %g want %g", r.name, info.StabilityFactor, r.e)
		}
		if info.BilinearAdditions != r.bilinearAdds {
			t.Errorf("%s: bilinear adds %d want %d", r.name, info.BilinearAdditions, r.bilinearAdds)
		}
		if info.TransformAdditions != r.transformAdds {
			t.Errorf("%s: transform adds %d want %d", r.name, info.TransformAdditions, r.transformAdds)
		}
		if info.Q > info.QLoose {
			t.Errorf("%s: Q %d > Q' %d", r.name, info.Q, info.QLoose)
		}
	}
}

func TestErrorBoundGrowth(t *testing.T) {
	ours, _ := abmm.Lookup("ours")
	wino, _ := abmm.Lookup("winograd")
	if abmm.ErrorBound(ours, 4096) >= abmm.ErrorBound(wino, 4096) {
		t.Error("E=12 bound should be below E=18 bound at n=4096")
	}
}

func TestMeasureMaxErrorOrdering(t *testing.T) {
	// The measured error of a fast algorithm must exceed classical's
	// and be nonzero; full orderings are asserted in the experiments.
	classical, _ := abmm.Lookup("classical")
	strassen, _ := abmm.Lookup("strassen")
	ec := abmm.MeasureMaxError(classical, 128, 0, 2, abmm.DistSymmetric, 1, 2)
	es := abmm.MeasureMaxError(strassen, 128, 3, 2, abmm.DistSymmetric, 1, 2)
	if ec <= 0 || es <= 0 {
		t.Fatalf("degenerate errors: classical %g strassen %g", ec, es)
	}
	if es < ec {
		t.Errorf("strassen error %g below classical %g", es, ec)
	}
}

func TestMultiplyScaled(t *testing.T) {
	const n = 64
	a, b := abmm.NewMatrix(n, n), abmm.NewMatrix(n, n)
	a.FillUniform(abmm.Rand(3), 0, 1)
	b.FillUniform(abmm.Rand(4), 0, 1)
	alg, _ := abmm.Lookup("ours")
	want := abmm.ReferenceProduct(a, b, 2)
	for _, m := range []abmm.ScalingMethod{abmm.ScaleNone, abmm.ScaleOutside, abmm.ScaleInside, abmm.ScaleRepeatedOI} {
		got := abmm.MultiplyScaled(alg, a, b, abmm.Options{Levels: 2, Workers: 2}, m)
		max := 0.0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d := math.Abs(got.At(i, j) - want.At(i, j)); d > max {
					max = d
				}
			}
		}
		if max > 1e-11 {
			t.Errorf("method %v: max error %g", m, max)
		}
	}
}

func TestMultiplyMixedPublic(t *testing.T) {
	strassen, _ := abmm.Lookup("strassen")
	winograd, _ := abmm.Lookup("winograd")
	a, b := abmm.NewMatrix(48, 48), abmm.NewMatrix(48, 48)
	a.FillUniform(abmm.Rand(9), -1, 1)
	b.FillUniform(abmm.Rand(10), -1, 1)
	got, err := abmm.MultiplyMixed([]*abmm.Algorithm{strassen, winograd}, a, b, abmm.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := abmm.MultiplyClassical(a, b, 2)
	for i := 0; i < 48; i++ {
		for j := 0; j < 48; j++ {
			if d := math.Abs(got.At(i, j) - want.At(i, j)); d > 1e-11 {
				t.Fatalf("mixed multiply off at %d,%d by %g", i, j, d)
			}
		}
	}
	ours, _ := abmm.Lookup("ours")
	if _, err := abmm.MultiplyMixed([]*abmm.Algorithm{ours}, a, b, abmm.Options{}); err == nil {
		t.Fatal("alt-basis algorithm accepted in mixed mode")
	}
	if _, err := abmm.MultiplyMixed(nil, a, b, abmm.Options{}); err == nil {
		t.Fatal("empty algorithm list accepted")
	}
}
