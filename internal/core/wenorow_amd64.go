//go:build amd64 && !purego

package core

// hasAVX2 reports whether the CPU and the operating system support the
// assembly row kernels (WENO, HLLE, SUM, UP and CONV). It is read once, at
// start-up; NewRHS copies it.
var hasAVX2 = cpuHasAVX2()

// wenoRowAVX2 is wenoRow's four-lane AVX2 loop over the first n lanes; n is
// a positive multiple of 4.
//
//go:noescape
func wenoRowAVX2(out, a, b, c, d, e *float64, n int)

// hlleRowAVX2 is hlleRow's four-lane AVX2 loop over the first n lanes of
// the rows in a; n is a positive multiple of 4.
//
//go:noescape
func hlleRowAVX2(a *hlleRowArgs, n int)

// sumRowAVX2 is sumRow's four-lane AVX2 loop over the first n lanes of the
// rows in a; n is a positive multiple of 4.
//
//go:noescape
func sumRowAVX2(a *sumRowArgs, n int)

// updateRowAVX2 is updateRow's four-lane AVX2 loop over the first n lanes;
// n is a positive multiple of 4.
//
//go:noescape
func updateRowAVX2(u, reg, rhs *float32, n int, a, b, dt float64)

// convRowAVX2 is convRow's four-cell AVX2 loop over the first n cells of
// src into the rows r … pi (ZSlice order); n is a positive multiple of 4.
//
//go:noescape
func convRowAVX2(r, u, v, w, p, gam, pi *float64, src *float32, n int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of XCR0.
func xgetbv() (eax uint32)

// cpuHasAVX2 reports whether AVX2 instructions may run: CPUID leaf 1 ECX
// has OSXSAVE (bit 27) and AVX (bit 28), XCR0 shows the OS saves the SSE and
// AVX register state (bits 1 and 2), and CPUID leaf 7 EBX has AVX2 (bit 5).
func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 || ecx&(1<<28) == 0 {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}
