package algos

import (
	"testing"

	"abmm/internal/exact"
)

func TestCatalogValidates(t *testing.T) {
	for _, alg := range []*Algorithm{
		Strassen(), Winograd(), Classical(2, 2, 2), Classical(3, 2, 4), Classical(1, 1, 1),
	} {
		if err := alg.Validate(); err != nil {
			t.Errorf("%s: %v", alg.Name, err)
		}
	}
}

func TestStrassenCounts(t *testing.T) {
	s := Strassen()
	ea, eb, dec := s.Spec.ScheduledAdditions()
	if ea+eb+dec != 18 {
		t.Errorf("Strassen scheduled additions = %d+%d+%d, want total 18", ea, eb, dec)
	}
	if s.Spec.R != 7 {
		t.Errorf("R = %d", s.Spec.R)
	}
}

func TestWinogradCounts(t *testing.T) {
	w := Winograd()
	ea, eb, dec := w.Spec.ScheduledAdditions()
	if ea != 4 || eb != 4 || dec != 7 {
		t.Errorf("Winograd scheduled additions = %d+%d+%d, want 4+4+7", ea, eb, dec)
	}
}

func TestKroneckerComposition(t *testing.T) {
	k, err := Kronecker(Strassen(), Classical(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if k.Spec.M0 != 4 || k.Spec.K0 != 4 || k.Spec.N0 != 2 || k.Spec.R != 28 {
		t.Fatalf("composed dims ⟨%d,%d,%d;%d⟩", k.Spec.M0, k.Spec.K0, k.Spec.N0, k.Spec.R)
	}
	if err := k.Validate(); err != nil {
		t.Fatalf("⟨4,4,2;28⟩ composition invalid: %v", err)
	}
}

func TestKroneckerStrassenSquared(t *testing.T) {
	k, err := Kronecker(Strassen(), Strassen())
	if err != nil {
		t.Fatal(err)
	}
	if k.Spec.R != 49 || k.Spec.M0 != 4 {
		t.Fatalf("⟨4,4,4⟩ composition dims wrong: R=%d", k.Spec.R)
	}
	if err := k.Validate(); err != nil {
		t.Fatalf("Strassen⊗Strassen invalid: %v", err)
	}
}

func TestOrbitPreservesValidity(t *testing.T) {
	p := exact.FromRows([][]int64{{1, 1}, {0, 1}})
	q := exact.FromRows([][]int64{{1, 0}, {1, 1}})
	r := exact.FromRows([][]int64{{0, 1}, {-1, 0}})
	alg, err := Orbit(Strassen(), p, q, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := alg.Validate(); err != nil {
		t.Fatalf("orbit element invalid: %v", err)
	}
}

func TestOrbitIdentityIsNoop(t *testing.T) {
	id := exact.Identity(2)
	alg, err := Orbit(Winograd(), id, id, id)
	if err != nil {
		t.Fatal(err)
	}
	w := Winograd()
	if !exact.Equal(alg.Spec.U, w.Spec.U) || !exact.Equal(alg.Spec.V, w.Spec.V) || !exact.Equal(alg.Spec.W, w.Spec.W) {
		t.Fatal("identity orbit changed the algorithm")
	}
}

func TestOrbitRejectsSingular(t *testing.T) {
	sing := exact.FromRows([][]int64{{1, 1}, {1, 1}})
	id := exact.Identity(2)
	if _, err := Orbit(Strassen(), sing, id, id); err == nil {
		t.Fatal("singular orbit matrix accepted")
	}
}

func TestAltBasisPreservesStandardRep(t *testing.T) {
	// Any invertible bases leave the standard representation unchanged.
	phi := exact.FromRows([][]int64{{1, 0, 0, 0}, {1, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}})
	psi := exact.FromRows([][]int64{{1, 0, 0, 1}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}})
	nu := exact.FromRows([][]int64{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, -1}, {0, 0, 0, 1}})
	base := Strassen()
	alt, err := AltBasis("strassen-alt-test", base, phi, psi, nu)
	if err != nil {
		t.Fatal(err)
	}
	u, v, w := alt.StandardUVW()
	if !exact.Equal(u, base.Spec.U) || !exact.Equal(v, base.Spec.V) || !exact.Equal(w, base.Spec.W) {
		t.Fatal("alternative basis changed the standard representation")
	}
	if err := alt.Validate(); err != nil {
		t.Fatal(err)
	}
	if !alt.IsAltBasis() {
		t.Fatal("IsAltBasis false for alternative basis algorithm")
	}
}

func TestAltBasisRejectsSingular(t *testing.T) {
	sing := exact.New(4, 4)
	id := exact.Identity(4)
	if _, err := AltBasis("bad", Strassen(), sing, id, id); err == nil {
		t.Fatal("singular φ accepted")
	}
}

func TestFullDecomposition(t *testing.T) {
	fd, err := FullDecomposition(Strassen())
	if err != nil {
		t.Fatal(err)
	}
	if !fd.IsAltBasis() {
		t.Fatal("full decomposition must be an alt-basis algorithm")
	}
	if fd.Spec.DU() != 7 || fd.Spec.DV() != 7 || fd.Spec.DW() != 7 {
		t.Fatalf("full decomposition dims %d/%d/%d, want 7", fd.Spec.DU(), fd.Spec.DV(), fd.Spec.DW())
	}
	if fd.Spec.TotalAdditions() != 0 {
		t.Fatal("fully decomposed bilinear phase must have no additions")
	}
	if err := fd.Validate(); err != nil {
		t.Fatal(err)
	}
	// Standard rep must equal the base algorithm's.
	u, _, _ := fd.StandardUVW()
	if !exact.Equal(u, Strassen().Spec.U) {
		t.Fatal("full decomposition changed U")
	}
}
