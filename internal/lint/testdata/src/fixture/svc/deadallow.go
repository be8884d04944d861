package svc

import "fixture/rsrc"

// DeadLineAllow ends its span on every path, so the justified allow
// above the acquire suppresses nothing: a dead allow is a finding.
func DeadLineAllow(cond bool) {
	// Once needed while the span leaked on the early return.
	//abmm:allow resource-pairing // want unjustified-allow
	s := rsrc.Start()
	if cond {
		s.End()
		return
	}
	s.End()
}

// DeadFuncAllow takes no context, so its function-scoped allow covers
// no finding either.
//
//abmm:allow ctx-discipline // want unjustified-allow
func DeadFuncAllow() int { return 2 }
