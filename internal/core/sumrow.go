package core

// sumRow is the SUM stage of one row of n cells: for every i < n it
// subtracts from acc[k][i] the difference hi[j0+i] - lo[j0+i] of flux
// component k (fluxPlane order: mass, normal momentum, two tangential
// momenta, energy, Γ, Π), and the Γ and Π rows also take back the
// non-conservative term g[i]·du, pi[i]·du, du being the face-velocity
// difference. With avx2 set (see RHS.avx2), whole groups of four lanes run
// in the assembly twin (sumrow_amd64.s), bitwise equal to the Go loop that
// covers the rest.
func sumRow(acc *[nq][]float64, lo, hi *fluxPlane, j0 int, g, pi []float64, n int, avx2 bool) {
	if n == 0 {
		return
	}
	// Every row must hold the n lanes before the first write: the assembly
	// reads and writes them unchecked.
	for k := range acc {
		_ = acc[k][n-1]
	}
	_, _ = g[n-1], pi[n-1]
	e := j0 + n - 1
	_, _, _, _ = lo.fr[e], lo.fun[e], lo.fut1[e], lo.fut2[e]
	_, _, _, _ = lo.fe[e], lo.fg[e], lo.fpi[e], lo.ustar[e]
	_, _, _, _ = hi.fr[e], hi.fun[e], hi.fut1[e], hi.fut2[e]
	_, _, _, _ = hi.fe[e], hi.fg[e], hi.fpi[e], hi.ustar[e]
	k := 0
	if avx2 && n >= 4 {
		k = n &^ 3
		var a sumRowArgs
		a.lo[0], a.lo[1], a.lo[2], a.lo[3] = &lo.fr[j0], &lo.fun[j0], &lo.fut1[j0], &lo.fut2[j0]
		a.lo[4], a.lo[5], a.lo[6], a.lo[7] = &lo.fe[j0], &lo.fg[j0], &lo.fpi[j0], &lo.ustar[j0]
		a.hi[0], a.hi[1], a.hi[2], a.hi[3] = &hi.fr[j0], &hi.fun[j0], &hi.fut1[j0], &hi.fut2[j0]
		a.hi[4], a.hi[5], a.hi[6], a.hi[7] = &hi.fe[j0], &hi.fg[j0], &hi.fpi[j0], &hi.ustar[j0]
		a.g, a.pi = &g[0], &pi[0]
		for q := range acc {
			a.acc[q] = &acc[q][0]
		}
		sumRowAVX2(&a, k)
	}
	if k < n {
		sumRowGo(acc, lo, hi, j0, g, pi, k, n)
	}
}

// sumRowGo is sumRow's Go loop over lanes k…n-1; the rows hold n lanes.
func sumRowGo(acc *[nq][]float64, lo, hi *fluxPlane, j0 int, g, pi []float64, k, n int) {
	a0, a1, a2, a3 := acc[0][:n], acc[1][:n], acc[2][:n], acc[3][:n]
	a4, a5, a6 := acc[4][:n], acc[5][:n], acc[6][:n]
	g, pi = g[:n], pi[:n]
	lr, lun, lt1, lt2 := lo.fr[j0:][:n], lo.fun[j0:][:n], lo.fut1[j0:][:n], lo.fut2[j0:][:n]
	le, lg, lpi, lu := lo.fe[j0:][:n], lo.fg[j0:][:n], lo.fpi[j0:][:n], lo.ustar[j0:][:n]
	hr, hun, ht1, ht2 := hi.fr[j0:][:n], hi.fun[j0:][:n], hi.fut1[j0:][:n], hi.fut2[j0:][:n]
	he, hg, hpi, hu := hi.fe[j0:][:n], hi.fg[j0:][:n], hi.fpi[j0:][:n], hi.ustar[j0:][:n]
	for i := k; i < n; i++ {
		du := hu[i] - lu[i]
		a0[i] -= hr[i] - lr[i]
		a1[i] -= hun[i] - lun[i]
		a2[i] -= ht1[i] - lt1[i]
		a3[i] -= ht2[i] - lt2[i]
		a4[i] -= he[i] - le[i]
		a5[i] -= hg[i] - lg[i] - g[i]*du
		a6[i] -= hpi[i] - lpi[i] - pi[i]*du
	}
}

// sumRowArgs carries the 25 row pointers of one sumRowAVX2 call: the
// accumulator rows in fluxPlane order (fr … fpi), the low- and high-face
// flux rows (fr, fun, fut1, fut2, fe, fg, fpi, ustar), and the cells' Γ and
// Π.
type sumRowArgs struct {
	acc    [nq]*float64
	lo, hi [8]*float64
	g, pi  *float64
}
