package exec

// hasAVX2 reports whether the CPU and the operating system run AVX2
// code. It is read once, from CPUID, and is the only input that picks a
// kernel: no flag, option or environment variable does.
var hasAVX2 = cpuHasAVX2()

// cpuHasAVX2 asks CPUID for AVX2 (leaf 7, EBX bit 5) and for POPCNT and
// AVX (leaf 1, ECX bits 23 and 28), and asks the operating system, by
// OSXSAVE (leaf 1, ECX bit 27) and XCR0 bits 1 and 2, whether it saves
// the YMM registers across context switches.
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const popcnt, osxsave, avx = 1 << 23, 1 << 27, 1 << 28
	if ecx1&(popcnt|osxsave|avx) != popcnt|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// markSpan32 is span[uint32].mark with the full words built by
// markWords32; the short last word and the words after it are the
// portable kernel's.
func markSpan32(vals []uint32, n uint64, dst []uint64, lo, width uint32) int64 {
	vals = vals[:min(n, uint64(len(vals)))]
	full := len(vals) >> 6
	var pop int64
	if full > 0 {
		// The routine reads vals[:full*64] and writes dst[:full]; these
		// two checks are the bounds it does not make.
		_, _ = dst[full-1], vals[full<<6-1]
		pop = markWords32(&vals[0], &dst[0], full, lo, width)
	}
	return pop + span[uint32]{lo, width}.markTail(vals, full, dst)
}

// markWords32 sets dst[k], for k < words, to the word whose bit i is
// vals[64k+i]-lo <= width, and returns the popcount of those words.
//
//go:noescape
func markWords32(vals *uint32, dst *uint64, words int, lo, width uint32) int64

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
