package statevec

// haveSIMD1 reports whether this CPU and OS can run kern1AVX2: the AVX2
// feature bit (CPUID leaf 7, EBX bit 5), AVX with OSXSAVE (leaf 1, ECX
// bits 28 and 27), and the OS saving XMM and YMM state (XCR0 bits 1-2).
var haveSIMD1 = cpuHasAVX2()

// kern1AVX2 is kern1Go in AVX2 assembly, bit-identical to it. It does no
// bounds checks: the caller guarantees amp covers blocks [lo, hi).
//
//go:noescape
func kern1AVX2(amp []complex128, bit, lo, hi int, u *[4]complex128)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() uint32

func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xgetbv0()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}
