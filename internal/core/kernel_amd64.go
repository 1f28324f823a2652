package core

// useAVX512 selects the AVX-512 bodies of the multi-index scan's candidate
// check and the stream walk's compaction. It is set once, at package init,
// from what the CPU and the OS report; tests clear it to run the Go loops
// on an AVX-512 host as well.
var useAVX512 = hasAVX512()

// hasAVX512 reports whether the CPU has AVX512F, AVX512VL and
// AVX512_VPOPCNTDQ, and POPCNT, which the compaction uses to count a step's
// hits, and whether the OS saves the opmask and ZMM state (XCR0), without
// which the instructions fault.
func hasAVX512() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, popcnt = 1 << 27, 1 << 23
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&popcnt == 0 {
		return false
	}
	// XCR0 bits: SSE and AVX state (1, 2), opmask (5), the upper halves of
	// ZMM0-15 (6) and ZMM16-31 (7).
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xgetbv()&zmmState != zmmState {
		return false
	}
	const avx512f, avx512vl, vpopcntdq = 1 << 16, 1 << 31, 1 << 14
	_, ebx, ecx, _ := cpuid(7, 0)
	return ebx&avx512f != 0 && ebx&avx512vl != 0 && ecx&vpopcntdq != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (xcr0 uint32)

// nextWithinAVX512 is nextWithin's AVX-512 body: the same index for the
// same arguments. It reads only words[:len(words)].
//
//go:noescape
func nextWithinAVX512(x uint64, words []uint64, maxD int) int

// compactAsm is compact's AVX-512 body. It requires len(words) <= walkBuf
// <= len(hits), which compactAVX512 enforces.
//
//go:noescape
func compactAsm(x uint64, words []uint64, maxD uint, hits []uint32) int
