package core

import "cubism/internal/grid"

// RHS is a reusable per-worker workspace that evaluates the right-hand side
// of the governing equations for one block (the paper's RHS kernel).
//
// The evaluation follows the paper's computation reordering (§5, Figure 2):
// the kernel operates on 2D slices in the z-direction held in a ring
// buffer, performs directional sweeps to evaluate the x-, y- and z-fluxes,
// and writes each layer of cells back to the block's temporary area (BACK
// stage) as soon as it has its sums, while the layer is still in cache.
//
// The row driver reconstructs a whole row of faces at a time with the WENO5
// row kernel (wenoRow) over unit-stride views of the slices — shifted views
// of one row in x, the rows around a face row in y, the six ring slices in
// z — and then computes the first-order fallback and the HLLE fluxes of the
// row with the face-row kernel (hlleRow). The SUM row kernel (sumRow) adds
// a row's flux differences into the one-layer SoA accumulator, and the BACK
// stage converts each layer to the block's AoS layout. CONV (convRow), SUM
// and ComputeFused's UP (updateRow) are row kernels with AVX2 twins too.
type RHS struct {
	N int

	ring *Ring
	// acc[q] accumulates the flux differences of quantity q over one layer
	// of cells; cell-major layout y*N+x, length N².
	acc [nq][]float64
	// lay is ComputeFused's rhs of one layer, narrowed to float32 in the
	// block's AoS layout (N² x nq), on its way from BACK to UP.
	lay []float32
	// z-face flux planes (N² each) at the low and high face of the layer.
	zPrev, zCur *fluxPlane
	// y-face flux rows (N each) at the low and high face of a cell row.
	yPrev, yCur *fluxPlane
	// Per-row face flux buffer, padded to a multiple of the vector width,
	// and its view one face up: rowHi's slot i is the high x-face of cell i.
	row, rowHi *fluxPlane
	// Reconstructed face states of one row of faces: 7 quantities in sweep
	// order, minus and plus side.
	stM, stP [nq][]float64
	// avx2 selects the AVX2 row kernels over the Go loops; NewRHS sets it
	// from the CPU (hasAVX2), tests set it to run either one.
	avx2 bool
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
		lay:   make([]float32, n*n*nq),
		avx2:  hasAVX2,
	}
	row := r.row
	r.rowHi = &fluxPlane{
		fr: row.fr[1:], fun: row.fun[1:], fut1: row.fut1[1:], fut2: row.fut2[1:],
		fe: row.fe[1:], fg: row.fg[1:], fpi: row.fpi[1:], ustar: row.ustar[1:],
	}
	for q := 0; q < nq; q++ {
		r.acc[q] = make([]float64, n*n)
		r.stM[q] = make([]float64, (n+1+3)&^3)
		r.stP[q] = make([]float64, (n+1+3)&^3)
	}
	return r
}

// NewRHSGo is NewRHS with the row kernels' Go loops on every lane, whatever
// the CPU: the scalar side of Table 7.
func NewRHSGo(n int) *RHS {
	r := NewRHS(n)
	r.avx2 = false
	return r
}

// Compute evaluates the RHS of the block assembled in lab with grid spacing
// h and stores dU/dt into out (block AoS layout, N³ x nq float32). Each
// layer of cells goes through BACK into its z-slab of out as soon as it has
// its sums.
func (r *RHS) Compute(lab *grid.Lab, h float64, out []float32) {
	n := r.N
	if len(out) != n*n*n*nq {
		panic("core: rhs output size mismatch")
	}
	m := n * n * nq
	r.start(lab)
	for z := 0; z < n; z++ {
		r.sweep(lab, z)
		r.back(h, out[z*m:(z+1)*m])
	}
}

// ComputeFused evaluates the RHS and applies the low-storage RK update
// stage (reg ← a·reg + dt·rhs, u ← u + b·reg) one layer at a time: BACK
// narrows the layer's rhs into the L1-resident layer buffer r.lay and the
// UP row kernel updates that z-slab of u and reg right away, so the rhs
// never round-trips through the block's temporary area. The rhs is rounded
// through float32 as Compute stores it, so the result is bitwise identical
// to Compute followed by UpdateScalar.
func (r *RHS) ComputeFused(lab *grid.Lab, h float64, u, reg []float32, a, b, dt float64) {
	n := r.N
	if len(u) != n*n*n*nq || len(reg) != len(u) {
		panic("core: fused rhs+up buffer size mismatch")
	}
	m := n * n * nq
	r.start(lab)
	for z := 0; z < n; z++ {
		r.sweep(lab, z)
		r.back(h, r.lay)
		updateRow(u[z*m:(z+1)*m], reg[z*m:(z+1)*m], r.lay, a, b, dt, r.avx2)
	}
}

// start primes the ring with the low-side ghost slices and the first
// interior slices, then bootstraps the z-face flux at the domain-low face.
func (r *RHS) start(lab *grid.Lab) {
	for z := -sw; z <= sw-1; z++ {
		r.ring.load(lab, z, r.avx2)
	}
	r.zRows(0, r.zPrev)
}

// sweep runs the directional flux sweeps of layer z, layers in order after
// start: it clears the accumulators and fills them with the layer's summed
// flux differences (everything up to BACK). Every cell receives its x, y
// and z terms in that order.
func (r *RHS) sweep(lab *grid.Lab, z int) {
	n := r.N
	for q := 0; q < nq; q++ {
		clear(r.acc[q])
	}
	r.ring.load(lab, z+sw, r.avx2)
	r.xRows(z)
	r.yRows(z)
	r.zRows(z+1, r.zCur)
	zs := r.ring.At(z)
	for iy := 0; iy < n; iy++ {
		r.accumulatePair(zs, iy*n, zs.Idx(0, iy), r.zPrev, r.zCur, iy*n, qw, qu, qv)
	}
	r.zPrev, r.zCur = r.zCur, r.zPrev
}

// back is the BACK stage of one layer: scale the SoA accumulators by 1/h
// and narrow them into dst, the layer's N² x nq float32 AoS slab.
func (r *RHS) back(h float64, dst []float32) {
	invH := 1 / h
	ncells := r.N * r.N
	a0, a1, a2, a3 := r.acc[0][:ncells], r.acc[1][:ncells], r.acc[2][:ncells], r.acc[3][:ncells]
	a4, a5, a6 := r.acc[4][:ncells], r.acc[5][:ncells], r.acc[6][:ncells]
	for i := range a0 {
		d := dst[i*nq : i*nq+nq : i*nq+nq]
		d[0] = float32(a0[i] * invH)
		d[1] = float32(a1[i] * invH)
		d[2] = float32(a2[i] * invH)
		d[3] = float32(a3[i] * invH)
		d[4] = float32(a4[i] * invH)
		d[5] = float32(a5[i] * invH)
		d[6] = float32(a6[i] * invH)
	}
}

// physical reports whether a reconstructed face state admits a real sound
// speed and positive density.
//
// Positivity safeguard: when the high-order reconstruction produces a
// non-physical state (negative density or a pressure below the stiffened
// vacuum, (Γ+1)p + Π <= 0, where the sound speed would be imaginary) the
// face falls back to the adjacent cell average — a local first-order
// reconstruction, the standard remedy for under-resolved violent collapses.
func physical(s faceState) bool {
	return s.r > 0 && (s.g+1)*s.p+s.pi > 0 && s.g > 0
}

// loadState reads SoA position f of the state rows src as a face state.
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

// accumulatePair adds the flux differences of one row of n cells between
// their high faces hi[j0:] and low faces lo[j0:]: the SUM stage of all three
// sweeps (an x row passes r.row and its shifted view r.rowHi). base is the
// layer accumulator index of cell 0 and so its slice offset; qn/qt1/qt2 map
// the sweep-normal flux components to quantity indices.
func (r *RHS) accumulatePair(zs *ZSlice, base, so int, lo, hi *fluxPlane, j0, qn, qt1, qt2 int) {
	var acc [nq][]float64
	acc[0], acc[1], acc[2], acc[3] = r.acc[qr][base:], r.acc[qn][base:], r.acc[qt1][base:], r.acc[qt2][base:]
	acc[4], acc[5], acc[6] = r.acc[qe][base:], r.acc[qg][base:], r.acc[qp][base:]
	sumRow(&acc, lo, hi, j0, zs.G[so:], zs.Pi[so:], r.N, r.avx2)
}
