//go:build !amd64 || purego

package core

// hasAVX2 is false: this build has no assembly row kernels, and wenoRow,
// hlleRow, sumRow, updateRow and convRow run their Go loops on every lane.
const hasAVX2 = false

func wenoRowAVX2(out, a, b, c, d, e *float64, n int) {
	panic("core: no AVX2 row kernel in this build")
}

func hlleRowAVX2(a *hlleRowArgs, n int) {
	panic("core: no AVX2 row kernel in this build")
}

func sumRowAVX2(a *sumRowArgs, n int) {
	panic("core: no AVX2 row kernel in this build")
}

func updateRowAVX2(u, reg, rhs *float32, n int, a, b, dt float64) {
	panic("core: no AVX2 row kernel in this build")
}

func convRowAVX2(r, u, v, w, p, gam, pi *float64, src *float32, n int) {
	panic("core: no AVX2 row kernel in this build")
}
