package core

import "cubism/internal/grid"

// RHS is a reusable per-worker workspace that evaluates the right-hand side
// of the governing equations for one block (the paper's RHS kernel).
//
// The evaluation follows the paper's computation reordering (§5, Figure 2):
// the kernel operates on 2D slices in the z-direction held in a ring
// buffer, performs directional sweeps to evaluate the x-, y- and z-fluxes,
// and writes the result back to the block's temporary area (BACK stage).
//
// Two drivers implement the WENO→HLLE pipeline:
//
//   - the row driver (default) reconstructs a whole row of faces at a time
//     with the WENO5 row kernel (wenoRow) over unit-stride views of the
//     slices — shifted views of one row in x, the rows around a face row in
//     y, the six ring slices in z — and then computes the first-order
//     fallback and the HLLE fluxes of the row with the face-row kernel
//     (hlleRow);
//   - the staged driver reconstructs and solves face by face per pencil,
//     the non-fused baseline of Table 9 and the row driver's test oracle.
//
// Both produce the same bits. The accumulator and flux planes are SoA so
// the scalar and vector drivers share all bookkeeping; the BACK stage
// converts to the block's AoS layout.
type RHS struct {
	N      int
	Staged bool // use the per-face WENO→HLLE baseline driver

	ring *Ring
	// acc[q] accumulates the flux differences of quantity q; cell-major
	// layout (z*N+y)*N+x, length N³.
	acc [nq][]float64
	// z-face flux planes (N² each) at the low and high face of the layer.
	zPrev, zCur *fluxPlane
	// y-face flux rows (N each) at the low and high face of a cell row
	// (row driver).
	yPrev, yCur *fluxPlane
	// Per-row face flux buffer, padded to a multiple of the vector width.
	row *fluxPlane
	// Reconstructed face states of one row of faces: 7 quantities in sweep
	// order, minus and plus side.
	stM, stP [nq][]float64
}

// fluxPlane holds HLLE outputs in SoA layout: the seven fluxes in sweep
// order (mass, normal momentum, two tangential momenta, energy, Γ, Π) plus
// the face velocity for the non-conservative term.
type fluxPlane struct {
	fr, fun, fut1, fut2, fe, fg, fpi, ustar []float64
}

func newFluxPlane(n int) *fluxPlane {
	backing := make([]float64, 8*n)
	return &fluxPlane{
		fr:    backing[0*n : 1*n],
		fun:   backing[1*n : 2*n],
		fut1:  backing[2*n : 3*n],
		fut2:  backing[3*n : 4*n],
		fe:    backing[4*n : 5*n],
		fg:    backing[5*n : 6*n],
		fpi:   backing[6*n : 7*n],
		ustar: backing[7*n : 8*n],
	}
}

// NewRHS allocates a workspace for blocks of edge n.
func NewRHS(n int) *RHS {
	r := &RHS{
		N:     n,
		ring:  NewRing(n),
		zPrev: newFluxPlane(n * n),
		zCur:  newFluxPlane(n * n),
		yPrev: newFluxPlane(n),
		yCur:  newFluxPlane(n),
		row:   newFluxPlane((n + 1 + 3) &^ 3),
	}
	for q := 0; q < nq; q++ {
		r.acc[q] = make([]float64, n*n*n)
		r.stM[q] = make([]float64, (n+1+3)&^3)
		r.stP[q] = make([]float64, (n+1+3)&^3)
	}
	return r
}

// Compute evaluates the RHS of the block assembled in lab with grid spacing
// h and stores dU/dt into out (block AoS layout, N³ x nq float32).
func (r *RHS) Compute(lab *grid.Lab, h float64, out []float32) {
	n := r.N
	if len(out) != n*n*n*nq {
		panic("core: rhs output size mismatch")
	}
	r.sweep(lab)
	r.back(h, out)
}

// ComputeFused evaluates the RHS and immediately applies the low-storage RK
// update stage (reg ← a·reg + dt·rhs, u ← u + b·reg) while the accumulators
// are cache-resident: the rhs value is consumed in-register instead of
// round-tripping through the block's temporary area. It rounds the rhs
// through float32 exactly like the BACK stage, so the result is bitwise
// identical to Compute followed by UpdateScalar.
func (r *RHS) ComputeFused(lab *grid.Lab, h float64, u, reg []float32, a, b, dt float64) {
	n := r.N
	if len(u) != n*n*n*nq || len(reg) != len(u) {
		panic("core: fused rhs+up buffer size mismatch")
	}
	r.sweep(lab)
	r.backFused(h, u, reg, a, b, dt)
}

// sweep runs the directional flux sweeps over the lab, filling the SoA
// accumulators with the summed flux differences (everything up to BACK).
// Every cell receives its x, y and z terms in that order.
func (r *RHS) sweep(lab *grid.Lab) {
	n := r.N
	for q := 0; q < nq; q++ {
		clear(r.acc[q])
	}

	// Prime the ring with the low-side ghost slices and the first interior
	// slices, then bootstrap the z-face flux at the domain-low face.
	for z := -sw; z <= sw-1; z++ {
		r.ring.Load(lab, z)
	}
	r.zFace(0, r.zPrev)

	for z := 0; z < n; z++ {
		r.ring.Load(lab, z+sw)
		if r.Staged {
			r.xSweep(z)
			r.ySweep(z)
		} else {
			r.xRows(z)
			r.yRows(z)
		}
		r.zFace(z+1, r.zCur)
		r.accumulateZ(z)
		r.zPrev, r.zCur = r.zCur, r.zPrev
	}
}

// zFace fills dst with the fluxes across z-face f with the selected driver.
func (r *RHS) zFace(f int, dst *fluxPlane) {
	if r.Staged {
		r.computeZFace(f, dst)
	} else {
		r.zRows(f, dst)
	}
}

// back is the BACK stage: scale the SoA accumulators by 1/h and write the
// result into the block's AoS temporary area.
func (r *RHS) back(h float64, out []float32) {
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
func (r *RHS) backFused(h float64, u, reg []float32, ca, cb, dt float64) {
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

// reconstructFace fills the minus and plus states at face f of a sweep with
// stride st: stencil cell k sits at offset o + (f+k)*st.
//
// Positivity safeguard: when the high-order reconstruction produces a
// non-physical state (negative density or a pressure below the stiffened
// vacuum, (Γ+1)p + Π <= 0, where the sound speed would be imaginary) the
// face falls back to the adjacent cell average — a local first-order
// reconstruction, the standard remedy for under-resolved violent collapses.
func reconstructFace(zs *ZSlice, o, f, st int, un, ut1, ut2 []float64) (m, p faceState) {
	i := o + f*st
	rm := func(a []float64) float64 {
		return wenoMinus(a[i-3*st], a[i-2*st], a[i-st], a[i], a[i+st])
	}
	rp := func(a []float64) float64 {
		return wenoPlus(a[i-2*st], a[i-st], a[i], a[i+st], a[i+2*st])
	}
	m = faceState{r: rm(zs.R), un: rm(un), ut1: rm(ut1), ut2: rm(ut2), p: rm(zs.P), g: rm(zs.G), pi: rm(zs.Pi)}
	p = faceState{r: rp(zs.R), un: rp(un), ut1: rp(ut1), ut2: rp(ut2), p: rp(zs.P), g: rp(zs.G), pi: rp(zs.Pi)}
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

// physical reports whether a reconstructed face state admits a real sound
// speed and positive density.
func physical(s faceState) bool {
	return s.r > 0 && (s.g+1)*s.p+s.pi > 0 && s.g > 0
}

// lineSweep evaluates all face fluxes of one pencil of n cells (n+1 faces)
// into r.row, staged: all reconstructed face states first (WENO stage),
// then HLLE. o is the slice offset of cell 0 and st the stencil stride.
func (r *RHS) lineSweep(zs *ZSlice, o, st int, un, ut1, ut2 []float64) {
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

func loadState(src *[nq][]float64, f int) faceState {
	return faceState{
		r: src[0][f], un: src[1][f], ut1: src[2][f], ut2: src[3][f],
		p: src[4][f], g: src[5][f], pi: src[6][f],
	}
}

// store writes one face flux into SoA position f.
func (fp *fluxPlane) store(f int, ff faceFlux) {
	fp.fr[f], fp.fun[f], fp.fut1[f], fp.fut2[f] = ff.fr, ff.fun, ff.fut1, ff.fut2
	fp.fe[f], fp.fg[f], fp.fpi[f], fp.ustar[f] = ff.fe, ff.fg, ff.fpi, ff.ustar
}

// load reads one face flux from SoA position f.
func (fp *fluxPlane) load(f int) faceFlux {
	return faceFlux{
		fr: fp.fr[f], fun: fp.fun[f], fut1: fp.fut1[f], fut2: fp.fut2[f],
		fe: fp.fe[f], fg: fp.fg[f], fpi: fp.fpi[f], ustar: fp.ustar[f],
	}
}

// accumulateRow adds the flux differences of one pencil from r.row (SUM
// stage). base is the accumulator index of cell 0 and step its stride along
// the pencil; so is the slice offset of cell 0 with stride sst; qn/qt1/qt2
// map the sweep-normal flux components to quantity indices.
func (r *RHS) accumulateRow(zs *ZSlice, base, step, so, sst, qn, qt1, qt2 int) {
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
func (r *RHS) xSweep(z int) {
	n := r.N
	zs := r.ring.At(z)
	for iy := 0; iy < n; iy++ {
		o := zs.Idx(0, iy)
		r.lineSweep(zs, o, 1, zs.U, zs.V, zs.W)
		r.accumulateRow(zs, (z*n+iy)*n, 1, o, 1, qu, qv, qw)
	}
}

// ySweep accumulates the y-direction flux differences of layer z.
func (r *RHS) ySweep(z int) {
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
func (r *RHS) computeZFace(f int, dst *fluxPlane) {
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

// accumulateZ adds the z-direction flux differences of layer z using the
// face planes zPrev (face z) and zCur (face z+1).
func (r *RHS) accumulateZ(z int) {
	n := r.N
	zs := r.ring.At(z)
	for iy := 0; iy < n; iy++ {
		r.accumulatePair(zs, (z*n+iy)*n, zs.Idx(0, iy), r.zPrev, r.zCur, iy*n, qw, qu, qv)
	}
}

// accumulatePair adds the flux differences of one row of n cells between
// their high faces hi[j0:] and low faces lo[j0:] (SUM stage of the y and z
// sweeps). base is the accumulator index of cell 0 and so its slice offset;
// qn/qt1/qt2 map the sweep-normal flux components to quantity indices.
func (r *RHS) accumulatePair(zs *ZSlice, base, so int, lo, hi *fluxPlane, j0, qn, qt1, qt2 int) {
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
