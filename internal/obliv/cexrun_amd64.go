package obliv

// hasAVX512 reports whether the CPU has AVX-512 F, for the 8-lane
// compares, blends and masked moves, and DQ, for the byte-wide mask
// instructions, and whether the OS has enabled their register state (XCR0
// bits 1, 2 and 5–7).
func hasAVX512() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(1<<27) == 0 { // OSXSAVE
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<16) != 0 && ebx7&(1<<17) != 0
}

// planeRunAVX512 is planeRun's chunk loop in AVX-512, 8 pairs per step.
// It does no bounds checks: call it through planeRunVector.
//
//go:noescape
func planeRunAVX512(k0, k1, v []uint64, lo, stride, u0, u1, period int, desc uint64, rec []uint64, q int)

// replayRunAVX512 is replayRun's chunk loop in AVX-512, 8 pairs per step.
// It does no bounds checks: call it through replayRunVector.
//
//go:noescape
func replayRunAVX512(p []uint64, lo, stride, u0, u1 int, rec []uint64, q int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
