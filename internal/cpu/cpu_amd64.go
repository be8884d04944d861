//go:build amd64

package cpu

// Host is the widest level this machine and its OS support.
var Host = detect()

// cpuid executes CPUID with the given EAX/ECX inputs.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (requires OSXSAVE).
func xgetbv() (eax, edx uint32)

// detect probes CPUID and XCR0. The micro-kernel's vector routines are
// fused multiply-add chains, so both levels need the FMA feature
// (CPUID.1:ECX bit 12). AVX2 needs the CPU feature plus the OS saving
// XMM and YMM state (XCR0 bits 1 and 2); AVX512 needs AVX512F on top of
// that plus the opmask and both ZMM state components (XCR0 bits 5, 6
// and 7).
func detect() ISA {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return Generic
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	_, _, c, _ := cpuid(1, 0)
	if c&fma == 0 || c&osxsave == 0 || c&avx == 0 {
		return Generic
	}
	const avx2, avx512f = 1 << 5, 1 << 16
	xcr0, _ := xgetbv()
	_, b, _, _ := cpuid(7, 0)
	if xcr0&0x6 != 0x6 || b&avx2 == 0 {
		return Generic
	}
	if xcr0&0xE6 != 0xE6 || b&avx512f == 0 {
		return AVX2
	}
	return AVX512
}
