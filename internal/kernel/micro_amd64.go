//go:build amd64

package kernel

// cpuid executes CPUID with the given EAX/ECX inputs.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (requires OSXSAVE).
func xgetbv() (eax, edx uint32)

// micro16x8AVX512 is the ZMM micro-kernel (micro_amd64.s):
// acc += Ap·Bp over kc ≥ 1 packed k steps, one fused multiply-add per
// k step and accumulator.
//
//go:noescape
func micro16x8AVX512(ap, bp *float64, kc int, acc *[MR * NR]float64)

// micro16x8AVX2 is the YMM micro-kernel (micro_amd64.s): the same
// packed tile as four 4×8 sub-tiles, same fused rounding.
//
//go:noescape
func micro16x8AVX2(ap, bp *float64, kc int, acc *[MR * NR]float64)

// hostISA is the widest micro-kernel routine this machine runs.
var hostISA = detectISA()

// detectISA probes CPUID and XCR0. Both vector routines are fused
// multiply-add chains, so both need the FMA feature (CPUID.1:ECX bit
// 12); without it the host runs microGo. AVX2 needs the CPU feature
// plus the OS saving XMM and YMM state (XCR0 bits 1 and 2); AVX-512
// needs AVX512F on top of that plus the opmask and both ZMM state
// components (XCR0 bits 5, 6 and 7).
func detectISA() isa {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return isaGo
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	_, _, c, _ := cpuid(1, 0)
	if c&fma == 0 || c&osxsave == 0 || c&avx == 0 {
		return isaGo
	}
	const avx2, avx512f = 1 << 5, 1 << 16
	xcr0, _ := xgetbv()
	_, b, _, _ := cpuid(7, 0)
	if xcr0&0x6 != 0x6 || b&avx2 == 0 {
		return isaGo
	}
	if xcr0&0xE6 != 0xE6 || b&avx512f == 0 {
		return isaAVX2
	}
	return isaAVX512
}
