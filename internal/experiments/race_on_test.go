//go:build race

package experiments

// raceEnabled reports whether the race detector is compiled in; used to
// skip the arena-reuse assertion, which the detector's sync.Pool
// skews.
const raceEnabled = true
