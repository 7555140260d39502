package core

// hlleRow sets dst[j0+i] to the HLLE flux across face i of a row, for
// every i < n: the HLLE face-row kernel. Lane i of ms and ps is the
// reconstructed minus and plus state of face i; a non-physical one falls
// back to the adjacent cell, lane i of stencil view sw-1 (minus) or sw
// (plus) of st (see physical). With avx2 set (see RHS.avx2), whole groups
// of four lanes run in the assembly twin (hllerow_amd64.s), bitwise equal to
// the Go loop that covers the rest (NaN payloads aside).
func hlleRow(ms, ps *[nq][]float64, st *[nq]stencil, dst *fluxPlane, j0, n int, avx2 bool) {
	if n == 0 {
		return
	}
	// Every row must hold the n lanes: the assembly reads and writes them
	// unchecked.
	for q := range st {
		_, _, _, _ = ms[q][n-1], ps[q][n-1], st[q][sw-1][n-1], st[q][sw][n-1]
	}
	e := j0 + n - 1
	_, _, _, _ = dst.fr[e], dst.fun[e], dst.fut1[e], dst.fut2[e]
	_, _, _, _ = dst.fe[e], dst.fg[e], dst.fpi[e], dst.ustar[e]
	k := 0
	if avx2 && n >= 4 {
		k = n &^ 3
		var a hlleRowArgs
		a.out[0], a.out[1], a.out[2], a.out[3] = &dst.fr[j0], &dst.fun[j0], &dst.fut1[j0], &dst.fut2[j0]
		a.out[4], a.out[5], a.out[6], a.out[7] = &dst.fe[j0], &dst.fg[j0], &dst.fpi[j0], &dst.ustar[j0]
		for q := range st {
			a.m[q], a.p[q] = &ms[q][0], &ps[q][0]
			a.cm[q], a.cp[q] = &st[q][sw-1][0], &st[q][sw][0]
		}
		hlleRowAVX2(&a, k)
	}
	for f := k; f < n; f++ {
		m, p := loadState(ms, f), loadState(ps, f)
		if !physical(m) {
			m = cellState(st, sw-1, f) // cell left of the face
		}
		if !physical(p) {
			p = cellState(st, sw, f) // cell right of the face
		}
		dst.store(j0+f, hlleFace(m, p))
	}
}

// hlleRowArgs carries the 36 row pointers of one hlleRowAVX2 call. Each
// group is in faceState order (r, un, ut1, ut2, p, g, pi); out is in
// fluxPlane order (fr, fun, fut1, fut2, fe, fg, fpi, ustar).
type hlleRowArgs struct {
	m, p   [nq]*float64 // reconstructed minus and plus states
	cm, cp [nq]*float64 // the cells left and right of the faces
	out    [8]*float64
}
