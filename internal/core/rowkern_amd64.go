package core

// useAVX2 reports whether the CPU runs AVX2 and the operating system saves
// the YMM registers across context switches. It is set once at start-up.
var useAVX2 = hasAVX2()

func hasAVX2() bool {
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves XMM and YMM state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// cpuid executes CPUID with EAX = eaxArg and ECX = ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv executes XGETBV with ECX = 0, returning XCR0.
func xgetbv() (eax, edx uint32)

// The AVX2 kernel bodies, in rowkern_amd64.s. Each takes only what its
// dispatcher in rowkern.go hands it; see there for the shapes.

//go:noescape
func blendAVX2(dst, src []float64, own, other float64)

//go:noescape
func colSumsAVX2(cs, row []float64)

//go:noescape
func rescaleAVX2(cs, ts, row []float64, inv float64)

//go:noescape
func mulColsAVX2(row, f []float64)

//go:noescape
func divColsAVX2(row, d []float64)
