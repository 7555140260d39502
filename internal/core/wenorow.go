package core

// wenoRow sets out[i] = wenoMinus(a[i], b[i], c[i], d[i], e[i]) for every
// lane i of out: the WENO5 reconstruction of one row of faces, its five
// stencil operands given as unit-stride views. The minus states of a row
// take the views at stencil bases 0…4 and the plus states those at bases
// 5…1 (wenoPlus is wenoMinus mirrored). With avx2 set (see RHS.avx2), whole
// groups of four lanes run in the assembly twin (wenorow_amd64.s), bitwise
// equal to the Go loop that covers the rest.
func wenoRow(out, a, b, c, d, e []float64, avx2 bool) {
	n := len(out)
	if n == 0 {
		return
	}
	// Every operand must hold n values: the assembly reads them unchecked.
	_, _, _, _, _ = a[n-1], b[n-1], c[n-1], d[n-1], e[n-1]
	k := 0
	if avx2 && n >= 4 {
		k = n &^ 3
		wenoRowAVX2(&out[0], &a[0], &b[0], &c[0], &d[0], &e[0], k)
	}
	for i := k; i < n; i++ {
		out[i] = wenoMinus(a[i], b[i], c[i], d[i], e[i])
	}
}
