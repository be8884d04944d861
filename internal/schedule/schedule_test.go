package schedule

import (
	"testing"

	"abmm/internal/exact"
)

// winogradU/V/W are the Strassen–Winograd ⟨2,2,2;7⟩ operators (row
// order A11,A12,A21,A22 etc.); the classical hand schedule needs
// 4+4+7 = 15 additions.
func winogradUVW() (u, v, w *exact.Matrix) {
	u = exact.FromRows([][]int64{
		{1, 0, 1, 0, 0, -1, 1},
		{0, 1, 1, 0, 0, 0, 0},
		{0, 0, -1, 0, 1, 1, -1},
		{0, 0, -1, 1, 1, 1, 0},
	})
	v = exact.FromRows([][]int64{
		{1, 0, 0, 1, -1, 1, 0},
		{0, 0, 0, -1, 1, -1, -1},
		{0, 1, 0, -1, 0, 0, 0},
		{0, 0, 1, 1, 0, 1, 1},
	})
	w = exact.FromRows([][]int64{
		{1, 1, 0, 0, 0, 0, 0},
		{1, 0, 1, 0, 1, 1, 0},
		{1, 0, 0, -1, 0, 1, 1},
		{1, 0, 0, 0, 1, 1, 1},
	})
	return u, v, w
}

func TestCompileWinogradEncodeAdditionCounts(t *testing.T) {
	u, v, w := winogradUVW()
	if err := exact.VerifyBilinear(2, 2, 2, u, v, w); err != nil {
		t.Fatalf("test fixture is not a valid algorithm: %v", err)
	}
	pu := Compile(u)
	pv := Compile(v)
	pw := Compile(w.Transpose())
	total := pu.Additions() + pv.Additions() + pw.Additions()
	t.Logf("winograd schedule: %d + %d + %d = %d additions",
		pu.Additions(), pv.Additions(), pw.Additions(), total)
	if pu.Additions() > 4 || pv.Additions() > 4 || pw.Additions() > 7 {
		t.Errorf("CSE missed Winograd sharing: got %d/%d/%d, want ≤4/≤4/≤7",
			pu.Additions(), pv.Additions(), pw.Additions())
	}
	if total < 15 {
		t.Errorf("impossible: %d additions beats the 15-addition lower bound", total)
	}
}

func TestCompileIdentityIsFree(t *testing.T) {
	p := Compile(exact.Identity(4))
	if len(p.Ops) != 0 {
		t.Fatalf("identity needs %d ops, want 0", len(p.Ops))
	}
	for i, r := range p.Targets {
		if r != i {
			t.Fatalf("target %d mapped to register %d", i, r)
		}
	}
}

func TestCompileZeroColumn(t *testing.T) {
	m := exact.FromRows([][]int64{{1, 0}, {0, 0}})
	p := Compile(m)
	if p.Targets[0] != 0 {
		t.Fatal("unit column must pass through")
	}
	if p.Targets[1] < p.NumInputs {
		t.Fatal("zero column must occupy a computed register")
	}
}

func TestCompileScaledSingle(t *testing.T) {
	m := exact.New(2, 1)
	m.SetInt(0, 0, -3)
	p := Compile(m)
	if p.Additions() != 0 || len(p.Ops) != 1 {
		t.Fatalf("scaled single term: ops=%d adds=%d", len(p.Ops), p.Additions())
	}
}

func TestCompileSharedPairCounted(t *testing.T) {
	// Three targets all containing x0+x1: expect one hoisted op reused
	// three times: ops = 1 (pair) + 0 (t0 passthrough) + 1 + 1 = 3.
	m := exact.FromRows([][]int64{
		{1, 1, 2},
		{1, 1, 2},
		{0, 1, 0},
		{0, 0, 1},
	})
	p := Compile(m)
	if p.Additions() > 3 {
		t.Fatalf("shared pair not hoisted: %d additions", p.Additions())
	}
}

func TestCompileDyadicCoefficients(t *testing.T) {
	m := exact.New(2, 1)
	m.SetFrac(0, 0, 1, 2)
	m.SetFrac(1, 0, -3, 4)
	p := Compile(m)
	if p.Additions() != 1 {
		t.Fatalf("additions = %d", p.Additions())
	}
	op := p.Ops[0]
	if op.CA != 0.5 || op.CB != -0.75 {
		t.Fatalf("coefficients %v %v", op.CA, op.CB)
	}
}

func TestCompileNonDyadicPanics(t *testing.T) {
	m := exact.New(1, 1)
	m.SetFrac(0, 0, 1, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-dyadic coefficient")
		}
	}()
	Compile(m)
}

func TestCompileDeterministic(t *testing.T) {
	u, v, w := winogradUVW()
	for _, m := range []*exact.Matrix{u, v, w.Transpose()} {
		p1, p2 := Compile(m), Compile(m)
		if len(p1.Ops) != len(p2.Ops) {
			t.Fatal("non-deterministic compilation")
		}
		for i := range p1.Ops {
			if p1.Ops[i] != p2.Ops[i] {
				t.Fatal("non-deterministic op stream")
			}
		}
	}
}
