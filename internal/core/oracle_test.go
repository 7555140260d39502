package core

import "cubism/internal/grid"

// stagedRHS is the per-face WENO→HLLE driver, kept as the row driver's test
// oracle: it reconstructs and solves face by face per pencil, the code
// testdata/rhs_golden.json was recorded from. It reuses the row driver's
// ring and flux planes, and keeps the whole-block accumulator with the
// block-wide z-face SUM (accumulatePair), BACK (back) and fused BACK+UP
// (backFused) stages the row driver had before it went one layer at a time.
type stagedRHS struct {
	*RHS
	// acc[q] accumulates the flux differences of quantity q; cell-major
	// layout (z*N+y)*N+x, length N³.
	acc [nq][]float64
}

func newStagedRHS(n int) *stagedRHS {
	r := &stagedRHS{RHS: NewRHS(n)}
	for q := 0; q < nq; q++ {
		r.acc[q] = make([]float64, n*n*n)
	}
	return r
}

// Compute is RHS.Compute over the per-face sweeps.
func (r *stagedRHS) Compute(lab *grid.Lab, h float64, out []float32) {
	r.sweep(lab)
	r.back(h, out)
}

// ComputeFused is RHS.ComputeFused over the per-face sweeps.
func (r *stagedRHS) ComputeFused(lab *grid.Lab, h float64, u, reg []float32, a, b, dt float64) {
	r.sweep(lab)
	r.backFused(h, u, reg, a, b, dt)
}

// sweep is RHS.sweep with the per-face x, y and z stages.
func (r *stagedRHS) sweep(lab *grid.Lab) {
	n := r.N
	for q := 0; q < nq; q++ {
		clear(r.acc[q])
	}
	for z := -sw; z <= sw-1; z++ {
		r.ring.Load(lab, z)
	}
	r.computeZFace(0, r.zPrev)

	for z := 0; z < n; z++ {
		r.ring.Load(lab, z+sw)
		r.xSweep(z)
		r.ySweep(z)
		r.computeZFace(z+1, r.zCur)
		zs := r.ring.At(z)
		for iy := 0; iy < n; iy++ {
			r.accumulatePair(zs, (z*n+iy)*n, zs.Idx(0, iy), r.zPrev, r.zCur, iy*n, qw, qu, qv)
		}
		r.zPrev, r.zCur = r.zCur, r.zPrev
	}
}

// back is the BACK stage: scale the SoA accumulators by 1/h and write the
// result into the block's AoS temporary area.
func (r *stagedRHS) back(h float64, out []float32) {
	invH := 1 / h
	ncells := r.N * r.N * r.N
	for q := 0; q < nq; q++ {
		a := r.acc[q]
		for i := 0; i < ncells; i++ {
			out[i*nq+q] = float32(a[i] * invH)
		}
	}
}

// backFused is the fused BACK+UP stage: the scaled accumulator value is
// narrowed to float32 (the same rounding point back applies on its way to
// memory) and fed straight into the RK update arithmetic of UpdateScalar.
func (r *stagedRHS) backFused(h float64, u, reg []float32, ca, cb, dt float64) {
	invH := 1 / h
	ncells := r.N * r.N * r.N
	for q := 0; q < nq; q++ {
		a := r.acc[q]
		for i := 0; i < ncells; i++ {
			idx := i*nq + q
			rhs := float32(a[i] * invH)
			rr := ca*float64(reg[idx]) + dt*float64(rhs)
			reg[idx] = float32(rr)
			u[idx] = float32(float64(u[idx]) + cb*rr)
		}
	}
}

// accumulatePair adds the flux differences of one row of n cells between
// their high faces hi[j0:] and low faces lo[j0:]: the SUM stage of all three
// sweeps (an x row passes r.row and its shifted view r.rowHi). base is the
// accumulator index of cell 0 and so its slice offset; qn/qt1/qt2 map the
// sweep-normal flux components to quantity indices.
func (r *stagedRHS) accumulatePair(zs *ZSlice, base, so int, lo, hi *fluxPlane, j0, qn, qt1, qt2 int) {
	for i := 0; i < r.N; i++ {
		j := j0 + i
		ai := base + i
		si := so + i
		du := hi.ustar[j] - lo.ustar[j]
		r.acc[qr][ai] -= hi.fr[j] - lo.fr[j]
		r.acc[qn][ai] -= hi.fun[j] - lo.fun[j]
		r.acc[qt1][ai] -= hi.fut1[j] - lo.fut1[j]
		r.acc[qt2][ai] -= hi.fut2[j] - lo.fut2[j]
		r.acc[qe][ai] -= hi.fe[j] - lo.fe[j]
		r.acc[qg][ai] -= hi.fg[j] - lo.fg[j] - zs.G[si]*du
		r.acc[qp][ai] -= hi.fpi[j] - lo.fpi[j] - zs.Pi[si]*du
	}
}

// wenoFace returns the high-order minus and plus states at face f of a
// sweep with stride st: stencil cell k sits at offset o + (f+k)*st.
func wenoFace(zs *ZSlice, o, f, st int, un, ut1, ut2 []float64) (m, p faceState) {
	i := o + f*st
	rm := func(a []float64) float64 {
		return wenoMinus(a[i-3*st], a[i-2*st], a[i-st], a[i], a[i+st])
	}
	rp := func(a []float64) float64 {
		return wenoPlus(a[i-2*st], a[i-st], a[i], a[i+st], a[i+2*st])
	}
	m = faceState{r: rm(zs.R), un: rm(un), ut1: rm(ut1), ut2: rm(ut2), p: rm(zs.P), g: rm(zs.G), pi: rm(zs.Pi)}
	p = faceState{r: rp(zs.R), un: rp(un), ut1: rp(ut1), ut2: rp(ut2), p: rp(zs.P), g: rp(zs.G), pi: rp(zs.Pi)}
	return
}

// reconstructFace is wenoFace followed by the positivity safeguard (see
// physical): a non-physical state falls back to the adjacent cell.
func reconstructFace(zs *ZSlice, o, f, st int, un, ut1, ut2 []float64) (m, p faceState) {
	i := o + f*st
	m, p = wenoFace(zs, o, f, st, un, ut1, ut2)
	if !physical(m) {
		c := i - st // cell left of the face
		m = faceState{r: zs.R[c], un: un[c], ut1: ut1[c], ut2: ut2[c], p: zs.P[c], g: zs.G[c], pi: zs.Pi[c]}
	}
	if !physical(p) {
		c := i // cell right of the face
		p = faceState{r: zs.R[c], un: un[c], ut1: ut1[c], ut2: ut2[c], p: zs.P[c], g: zs.G[c], pi: zs.Pi[c]}
	}
	return
}

// lineSweep evaluates all face fluxes of one pencil of n cells (n+1 faces)
// into r.row, staged: all reconstructed face states first (WENO stage),
// then HLLE. o is the slice offset of cell 0 and st the stencil stride.
func (r *stagedRHS) lineSweep(zs *ZSlice, o, st int, un, ut1, ut2 []float64) {
	n := r.N
	for f := 0; f <= n; f++ {
		m, p := reconstructFace(zs, o, f, st, un, ut1, ut2)
		storeState(&r.stM, f, m)
		storeState(&r.stP, f, p)
	}
	for f := 0; f <= n; f++ {
		r.row.store(f, hlleFace(loadState(&r.stM, f), loadState(&r.stP, f)))
	}
}

func storeState(dst *[nq][]float64, f int, s faceState) {
	dst[0][f], dst[1][f], dst[2][f], dst[3][f] = s.r, s.un, s.ut1, s.ut2
	dst[4][f], dst[5][f], dst[6][f] = s.p, s.g, s.pi
}

// accumulateRow adds the flux differences of one pencil from r.row (SUM
// stage). base is the accumulator index of cell 0 and step its stride along
// the pencil; so is the slice offset of cell 0 with stride sst; qn/qt1/qt2
// map the sweep-normal flux components to quantity indices.
func (r *stagedRHS) accumulateRow(zs *ZSlice, base, step, so, sst, qn, qt1, qt2 int) {
	n := r.N
	row := r.row
	for i := 0; i < n; i++ {
		ai := base + i*step
		si := so + i*sst
		du := row.ustar[i+1] - row.ustar[i]
		r.acc[qr][ai] -= row.fr[i+1] - row.fr[i]
		r.acc[qn][ai] -= row.fun[i+1] - row.fun[i]
		r.acc[qt1][ai] -= row.fut1[i+1] - row.fut1[i]
		r.acc[qt2][ai] -= row.fut2[i+1] - row.fut2[i]
		r.acc[qe][ai] -= row.fe[i+1] - row.fe[i]
		r.acc[qg][ai] -= row.fg[i+1] - row.fg[i] - zs.G[si]*du
		r.acc[qp][ai] -= row.fpi[i+1] - row.fpi[i] - zs.Pi[si]*du
	}
}

// xSweep accumulates the x-direction flux differences of layer z.
func (r *stagedRHS) xSweep(z int) {
	n := r.N
	zs := r.ring.At(z)
	for iy := 0; iy < n; iy++ {
		o := zs.Idx(0, iy)
		r.lineSweep(zs, o, 1, zs.U, zs.V, zs.W)
		r.accumulateRow(zs, (z*n+iy)*n, 1, o, 1, qu, qv, qw)
	}
}

// ySweep accumulates the y-direction flux differences of layer z.
func (r *stagedRHS) ySweep(z int) {
	n := r.N
	zs := r.ring.At(z)
	for ix := 0; ix < n; ix++ {
		o := zs.Idx(ix, 0)
		r.lineSweep(zs, o, zs.S, zs.V, zs.U, zs.W)
		r.accumulateRow(zs, z*n*n+ix, n, o, zs.S, qv, qu, qw)
	}
}

// computeZFace fills dst with the HLLE fluxes across z-face f (between
// layers f-1 and f), reconstructing across the ring slices.
func (r *stagedRHS) computeZFace(f int, dst *fluxPlane) {
	n := r.N
	var s [6]*ZSlice
	for k := range s {
		s[k] = r.ring.At(f - 3 + k)
	}
	for iy := 0; iy < n; iy++ {
		o := s[0].Idx(0, iy)
		for ix := 0; ix < n; ix++ {
			i := o + ix
			m := faceState{
				r:   wenoMinus(s[0].R[i], s[1].R[i], s[2].R[i], s[3].R[i], s[4].R[i]),
				un:  wenoMinus(s[0].W[i], s[1].W[i], s[2].W[i], s[3].W[i], s[4].W[i]),
				ut1: wenoMinus(s[0].U[i], s[1].U[i], s[2].U[i], s[3].U[i], s[4].U[i]),
				ut2: wenoMinus(s[0].V[i], s[1].V[i], s[2].V[i], s[3].V[i], s[4].V[i]),
				p:   wenoMinus(s[0].P[i], s[1].P[i], s[2].P[i], s[3].P[i], s[4].P[i]),
				g:   wenoMinus(s[0].G[i], s[1].G[i], s[2].G[i], s[3].G[i], s[4].G[i]),
				pi:  wenoMinus(s[0].Pi[i], s[1].Pi[i], s[2].Pi[i], s[3].Pi[i], s[4].Pi[i]),
			}
			p := faceState{
				r:   wenoPlus(s[1].R[i], s[2].R[i], s[3].R[i], s[4].R[i], s[5].R[i]),
				un:  wenoPlus(s[1].W[i], s[2].W[i], s[3].W[i], s[4].W[i], s[5].W[i]),
				ut1: wenoPlus(s[1].U[i], s[2].U[i], s[3].U[i], s[4].U[i], s[5].U[i]),
				ut2: wenoPlus(s[1].V[i], s[2].V[i], s[3].V[i], s[4].V[i], s[5].V[i]),
				p:   wenoPlus(s[1].P[i], s[2].P[i], s[3].P[i], s[4].P[i], s[5].P[i]),
				g:   wenoPlus(s[1].G[i], s[2].G[i], s[3].G[i], s[4].G[i], s[5].G[i]),
				pi:  wenoPlus(s[1].Pi[i], s[2].Pi[i], s[3].Pi[i], s[4].Pi[i], s[5].Pi[i]),
			}
			if !physical(m) {
				m = faceState{r: s[2].R[i], un: s[2].W[i], ut1: s[2].U[i], ut2: s[2].V[i], p: s[2].P[i], g: s[2].G[i], pi: s[2].Pi[i]}
			}
			if !physical(p) {
				p = faceState{r: s[3].R[i], un: s[3].W[i], ut1: s[3].U[i], ut2: s[3].V[i], p: s[3].P[i], g: s[3].G[i], pi: s[3].Pi[i]}
			}
			ff := hlleFace(m, p)
			j := iy*n + ix
			dst.fr[j], dst.fun[j], dst.fut1[j], dst.fut2[j] = ff.fr, ff.fun, ff.fut1, ff.fut2
			dst.fe[j], dst.fg[j], dst.fpi[j], dst.ustar[j] = ff.fe, ff.fg, ff.fpi, ff.ustar
		}
	}
}
