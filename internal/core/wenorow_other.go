//go:build !amd64 || purego

package core

// hasAVX2 is false: this build has no assembly row kernels, and wenoRow and
// hlleRow run their Go loops on every lane.
const hasAVX2 = false

func wenoRowAVX2(out, a, b, c, d, e *float64, n int) {
	panic("core: no AVX2 row kernel in this build")
}

func hlleRowAVX2(a *hlleRowArgs, n int) {
	panic("core: no AVX2 row kernel in this build")
}
