package obs

import "time"

// Tee combines two Recorders into one that forwards every event to
// both. A compiled plan tees the caller's recorder with its PlanSlot,
// the serving layer tees its Collector with the SLO engine, and a
// traced execution tees the plan's recorder with the request's
// reqtrace.Trace, so one set of events feeds every sink.
//
// A nil side is elided — Tee(a, nil) returns a — so callers can tee
// unconditionally; a typed-nil pointer is not a nil side. Tee allocates
// (one small struct); call it on cold paths only, not inside the warm
// multiply loop.
func Tee(a, b Recorder) Recorder {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &tee{a: a, b: b}
}

type tee struct {
	a, b Recorder
}

func (t *tee) PhaseDone(p Phase, d time.Duration) {
	t.a.PhaseDone(p, d)
	t.b.PhaseDone(p, d)
}

func (t *tee) MulDone(info MulInfo, total time.Duration) {
	t.a.MulDone(info, total)
	t.b.MulDone(info, total)
}

func (t *tee) ArenaRelease(u ArenaUsage) {
	t.a.ArenaRelease(u)
	t.b.ArenaRelease(u)
}

func (t *tee) ErrorSample(measured, bound float64) {
	t.a.ErrorSample(measured, bound)
	t.b.ErrorSample(measured, bound)
}

// PprofLabels implements PprofLabeler: labeling is on when either side
// asks for it.
func (t *tee) PprofLabels() bool {
	la, ok := t.a.(PprofLabeler)
	if ok && la.PprofLabels() {
		return true
	}
	lb, ok := t.b.(PprofLabeler)
	return ok && lb.PprofLabels()
}
