// Package cpu probes, once, the widest vector instruction set the host
// and its operating system support. internal/kernel (the micro-kernel)
// and internal/matrix (the row combinations) pick their assembly
// routines from it, and fall back to their portable Go loops off amd64
// or on hosts without the features.
package cpu

// ISA names a vector instruction set level. Each level's requirement
// includes the previous one's, so a host that runs one level runs every
// narrower one too.
type ISA uint8

const (
	// Generic runs the portable Go loops: every non-amd64 build, and
	// amd64 hosts without AVX2 and FMA.
	Generic ISA = iota
	// AVX2 is AVX2 with FMA and OS-saved YMM state.
	AVX2
	// AVX512 adds AVX512F and OS-saved opmask and ZMM state.
	AVX512
)
