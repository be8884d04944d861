//go:build !race

package server

// raceEnabled reports whether the race detector is compiled in; used to
// skip strict allocation assertions, which the detector skews.
const raceEnabled = false
