package obs

import (
	"testing"
	"time"
)

// teeRec counts events and optionally implements the refinement
// interfaces.
type teeRec struct {
	phases, muls, arenas int
	labels               bool
}

func (r *teeRec) PhaseDone(Phase, time.Duration) { r.phases++ }
func (r *teeRec) MulDone(MulInfo, time.Duration) { r.muls++ }
func (r *teeRec) ArenaRelease(ArenaUsage)        { r.arenas++ }
func (r *teeRec) PprofLabels() bool              { return r.labels }

func TestTeeForwardsToBoth(t *testing.T) {
	a, b := &teeRec{}, &teeRec{}
	rec := Tee(a, b)
	rec.PhaseDone(PhaseBilinear, time.Millisecond)
	rec.MulDone(MulInfo{M: 2, K: 2, N: 2}, time.Millisecond)
	rec.ArenaRelease(ArenaUsage{})
	for name, r := range map[string]*teeRec{"a": a, "b": b} {
		if r.phases != 1 || r.muls != 1 || r.arenas != 1 {
			t.Errorf("side %s missed events: %+v", name, r)
		}
	}
}

func TestTeeElidesNilSides(t *testing.T) {
	a := &teeRec{}
	if got := Tee(a, nil); got != Recorder(a) {
		t.Error("Tee(a, nil) should return a unchanged")
	}
	if got := Tee(nil, a); got != Recorder(a) {
		t.Error("Tee(nil, a) should return a unchanged")
	}
	if got := Tee(nil, nil); got != nil {
		t.Error("Tee(nil, nil) should be nil")
	}
}

func TestTeePprofLabels(t *testing.T) {
	cases := []struct{ a, b, want bool }{
		{false, false, false}, {true, false, true},
		{false, true, true}, {true, true, true},
	}
	for _, tc := range cases {
		rec := Tee(&teeRec{labels: tc.a}, &teeRec{labels: tc.b})
		if got := rec.(PprofLabeler).PprofLabels(); got != tc.want {
			t.Errorf("labels(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}
