package core

// The row driver: each sweep hands faceRow the stencils of a whole row of
// faces, the WENO5 row kernel reconstructs them, and the HLLE face-row
// kernel, first-order fallback included, turns the reconstructed rows into
// fluxes.

// stencil holds the 2*sw unit-stride views of one quantity around a row of
// faces: lane i of view k is the cell k-sw steps along the sweep from face
// i, so views 0…4 feed the minus state and views 5…1 the plus state.
type stencil [2 * sw][]float64

// faceRow evaluates the fluxes of m faces into dst[j0:j0+m]. st holds the
// stencils of the seven quantities in sweep order (ρ, u_n, u_t1, u_t2, p, Γ,
// Π). A non-physical reconstructed state (see physical) falls back to its
// adjacent cell inside hlleRow.
func (r *RHS) faceRow(st *[nq]stencil, m int, dst *fluxPlane, j0 int) {
	for q := range st {
		s := &st[q]
		wenoRow(r.stM[q][:m], s[0], s[1], s[2], s[3], s[4], r.avx2)
		wenoRow(r.stP[q][:m], s[5], s[4], s[3], s[2], s[1], r.avx2)
	}
	hlleRow(&r.stM, &r.stP, st, dst, j0, m, r.avx2)
}

// cellState reads lane f of stencil view k as a face state.
func cellState(st *[nq]stencil, k, f int) faceState {
	return faceState{
		r: st[0][k][f], un: st[1][k][f], ut1: st[2][k][f], ut2: st[3][k][f],
		p: st[4][k][f], g: st[5][k][f], pi: st[6][k][f],
	}
}

// xRows accumulates the x-direction flux differences of layer z, one row of
// n+1 faces per y: the stencil views are shifted views of the row itself.
// With r.avx2 set, the row runs padded to a multiple of 4 lanes, so
// no lane is left to the Go tail loops (which would run every pad lane at
// full cost); the pad lanes read on into the slice (its row stride and
// extra rows cover them) and land in r.row past face n, which nothing reads.
func (r *RHS) xRows(z int) {
	n := r.N
	m := n + 1
	if r.avx2 {
		m = (m + 3) &^ 3
	}
	zs := r.ring.At(z)
	qs := [nq][]float64{zs.R, zs.U, zs.V, zs.W, zs.P, zs.G, zs.Pi}
	var st [nq]stencil
	for iy := 0; iy < n; iy++ {
		o := zs.Idx(-sw, iy)
		for q := range st {
			for k := range st[q] {
				st[q][k] = qs[q][o+k:]
			}
		}
		r.faceRow(&st, m, r.row, 0)
		r.accumulatePair(zs, (z*n+iy)*n, zs.Idx(0, iy), r.row, r.rowHi, 0, qu, qv, qw)
	}
}

// yRows accumulates the y-direction flux differences of layer z. Face row fy
// (between cell rows fy-1 and fy) takes its stencil views from the rows
// fy-3…fy+2 with lanes across x; once it is done, cell row fy-1 has both of
// its y-faces and takes its differences.
func (r *RHS) yRows(z int) {
	n := r.N
	zs := r.ring.At(z)
	qs := [nq][]float64{zs.R, zs.V, zs.U, zs.W, zs.P, zs.G, zs.Pi}
	var st [nq]stencil
	for fy := 0; fy <= n; fy++ {
		for k := 0; k < 2*sw; k++ {
			o := zs.Idx(0, fy-sw+k)
			for q := range st {
				st[q][k] = qs[q][o:]
			}
		}
		r.faceRow(&st, n, r.yCur, 0)
		if cy := fy - 1; cy >= 0 {
			r.accumulatePair(zs, (z*n+cy)*n, zs.Idx(0, cy), r.yPrev, r.yCur, 0, qv, qu, qw)
		}
		r.yPrev, r.yCur = r.yCur, r.yPrev
	}
}

// zRows fills dst with the fluxes across z-face f (between layers f-1 and
// f), one row of n faces per y: view k of a stencil is the row in ring
// slice f-3+k.
func (r *RHS) zRows(f int, dst *fluxPlane) {
	n := r.N
	var s [2 * sw]*ZSlice
	for k := range s {
		s[k] = r.ring.At(f - sw + k)
	}
	var st [nq]stencil
	for iy := 0; iy < n; iy++ {
		o := s[0].Idx(0, iy)
		for k, zs := range s {
			st[0][k], st[1][k], st[2][k], st[3][k] = zs.R[o:], zs.W[o:], zs.U[o:], zs.V[o:]
			st[4][k], st[5][k], st[6][k] = zs.P[o:], zs.G[o:], zs.Pi[o:]
		}
		r.faceRow(&st, n, dst, iy*n)
	}
}
