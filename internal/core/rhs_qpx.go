package core

import (
	"cubism/internal/grid"
	"cubism/internal/qpx"
)

// RHSVec is the explicitly vectorized RHS driver — the paper's QPX code
// path. It shares the ring buffer and flux planes with the scalar driver,
// keeps a whole-block accumulator of its own, and replaces the per-face
// arithmetic with 4-lane bundles:
//
//   - the x-sweep vectorizes along the faces of a pencil (four consecutive
//     faces per step, with the shifted stencil operands the QPX code builds
//     through inter-lane permutations);
//   - the y- and z-sweeps vectorize across x (four cells of a face plane
//     per step), where the SoA data-slices make every stencil operand a
//     contiguous vector load.
//
// Block edges must be a multiple of the vector width; lanes that fall
// beyond the last face of a pencil are computed and discarded, exactly like
// the padded registers of the original implementation.
type RHSVec struct {
	*RHS
	// acc[q] accumulates the flux differences of quantity q over the whole
	// block; cell-major layout (z*N+y)*N+x, length N³.
	acc [nq][]float64
	// rowA/rowB are flux-row ping-pong buffers for the y-sweep.
	rowA, rowB *fluxPlane
}

// NewRHSVec allocates a vector workspace for blocks of edge n (n % 4 == 0).
func NewRHSVec(n int) *RHSVec {
	if n%qpx.Width != 0 {
		panic("core: vector RHS requires block edge divisible by the SIMD width")
	}
	r := &RHSVec{
		RHS:  NewRHS(n),
		rowA: newFluxPlane(n),
		rowB: newFluxPlane(n),
	}
	for q := 0; q < nq; q++ {
		r.acc[q] = make([]float64, n*n*n)
	}
	return r
}

// Compute evaluates the RHS of the block assembled in lab (vector path).
func (r *RHSVec) Compute(lab *grid.Lab, h float64, out []float32) {
	n := r.N
	if len(out) != n*n*n*nq {
		panic("core: rhs output size mismatch")
	}
	r.sweepVec(lab)
	r.back(h, out)
}

// ComputeFused evaluates the RHS and immediately applies the low-storage RK
// update (the vector counterpart of RHS.ComputeFused): the BACK narrowing
// and the UpdateQPX op sequence run back to back on in-register values, so
// the result is bitwise identical to Compute followed by UpdateQPX.
func (r *RHSVec) ComputeFused(lab *grid.Lab, h float64, u, reg []float32, a, b, dt float64) {
	n := r.N
	if len(u) != n*n*n*nq || len(reg) != len(u) {
		panic("core: fused rhs+up buffer size mismatch")
	}
	r.sweepVec(lab)
	r.backFusedVec(h, u, reg, a, b, dt)
}

// sweepVec runs the vectorized directional sweeps, filling the SoA
// accumulators (everything up to BACK).
func (r *RHSVec) sweepVec(lab *grid.Lab) {
	n := r.N
	for q := 0; q < nq; q++ {
		clear(r.acc[q])
	}
	for z := -sw; z <= sw-1; z++ {
		r.ring.LoadVec(lab, z)
	}
	r.zFaceVec(0, r.zPrev)
	for z := 0; z < n; z++ {
		r.ring.LoadVec(lab, z+sw)
		r.xSweepVec(z)
		r.ySweepVec(z)
		r.zFaceVec(z+1, r.zCur)
		r.accumulateZVec(z)
		r.zPrev, r.zCur = r.zCur, r.zPrev
	}
}

// back is the BACK stage of the vector path: scale the SoA accumulators by
// 1/h and write the result into the block's AoS temporary area.
func (r *RHSVec) back(h float64, out []float32) {
	invH := 1 / h
	ncells := r.N * r.N * r.N
	for q := 0; q < nq; q++ {
		a := r.acc[q]
		for i := 0; i < ncells; i++ {
			out[i*nq+q] = float32(a[i] * invH)
		}
	}
}

// backFusedVec is the fused BACK+UP stage of the vector path: four
// accumulator lanes are scaled by 1/h, narrowed to float32 in-register (the
// rounding point of the staged BACK store), and consumed by the exact
// multiply-add sequence of UpdateQPX on the strided AoS slots of quantity q.
func (r *RHSVec) backFusedVec(h float64, u, reg []float32, a, b, dt float64) {
	invH := qpx.Splat(1 / h)
	va, vb, vdt := qpx.Splat(a), qpx.Splat(b), qpx.Splat(dt)
	ncells := r.N * r.N * r.N
	var rhs4 [qpx.Width]float32
	for q := 0; q < nq; q++ {
		acc := r.acc[q]
		for i := 0; i < ncells; i += qpx.Width {
			invH.Mul(qpx.Load4(acc[i:])).Store4f(rhs4[:])
			i0, i1 := i*nq+q, (i+1)*nq+q
			i2, i3 := (i+2)*nq+q, (i+3)*nq+q
			rr := va.Mul(qpx.New(float64(reg[i0]), float64(reg[i1]), float64(reg[i2]), float64(reg[i3])))
			rr = vdt.MAdd(qpx.Load4f(rhs4[:]), rr)
			reg[i0], reg[i1], reg[i2], reg[i3] = float32(rr.A), float32(rr.B), float32(rr.C), float32(rr.D)
			uu := vb.MAdd(rr, qpx.New(float64(u[i0]), float64(u[i1]), float64(u[i2]), float64(u[i3])))
			u[i0], u[i1], u[i2], u[i3] = float32(uu.A), float32(uu.B), float32(uu.C), float32(uu.D)
		}
	}
}

// reconstructX reconstructs the minus/plus states of the four faces
// fg..fg+3 of an x-pencil whose cell 0 sits at slice offset o.
func reconstructX(zs *ZSlice, o, fg int) (m, p faceStateV) {
	load := func(a []float64, k int) qpx.Vec4 { return qpx.Load4(a[o+fg+k:]) }
	rec := func(a []float64) (qpx.Vec4, qpx.Vec4) {
		c0, c1, c2 := load(a, -3), load(a, -2), load(a, -1)
		c3, c4, c5 := load(a, 0), load(a, 1), load(a, 2)
		return wenoMinusV(c0, c1, c2, c3, c4), wenoPlusV(c1, c2, c3, c4, c5)
	}
	m.r, p.r = rec(zs.R)
	m.un, p.un = rec(zs.U)
	m.ut1, p.ut1 = rec(zs.V)
	m.ut2, p.ut2 = rec(zs.W)
	m.p, p.p = rec(zs.P)
	m.g, p.g = rec(zs.G)
	m.pi, p.pi = rec(zs.Pi)
	// First-order fallback for non-physical lanes (see physical, hlleRow).
	cen := func(k int) faceStateV {
		return faceStateV{
			r: load(zs.R, k), un: load(zs.U, k), ut1: load(zs.V, k), ut2: load(zs.W, k),
			p: load(zs.P, k), g: load(zs.G, k), pi: load(zs.Pi, k),
		}
	}
	m = safeguardV(m, cen(-1))
	p = safeguardV(p, cen(0))
	return
}

// storeFluxV writes a 4-lane flux bundle into a fluxPlane at face f.
func storeFluxV(fp *fluxPlane, f int, ff faceFluxV) {
	ff.fr.Store4(fp.fr[f:])
	ff.fun.Store4(fp.fun[f:])
	ff.fut1.Store4(fp.fut1[f:])
	ff.fut2.Store4(fp.fut2[f:])
	ff.fe.Store4(fp.fe[f:])
	ff.fg.Store4(fp.fg[f:])
	ff.fpi.Store4(fp.fpi[f:])
	ff.ustar.Store4(fp.ustar[f:])
}

// xSweepVec accumulates the x-direction flux differences of layer z.
func (r *RHSVec) xSweepVec(z int) {
	n := r.N
	zs := r.ring.At(z)
	for iy := 0; iy < n; iy++ {
		o := zs.Idx(0, iy)
		for fg := 0; fg <= n; fg += qpx.Width {
			m, p := reconstructX(zs, o, fg)
			storeFluxV(r.row, fg, hlleFaceV(m, p))
		}
		r.accumulateRowVec(zs, (z*n+iy)*n, o, qu, qv, qw, r.row, 1)
	}
}

// accumulateRowVec is the vector SUM stage for a pencil whose flux rows are
// contiguous (offset shift between the low and high face of cell i is
// `shift`). base is the accumulator index of cell 0 (x-contiguous) and so
// the slice offset of cell 0.
func (r *RHSVec) accumulateRowVec(zs *ZSlice, base, so, qn, qt1, qt2 int, row *fluxPlane, shift int) {
	n := r.N
	for i := 0; i < n; i += qpx.Width {
		diff := func(a []float64) qpx.Vec4 {
			return qpx.Load4(a[i+shift:]).Sub(qpx.Load4(a[i:]))
		}
		du := diff(row.ustar)
		sub := func(acc []float64, d qpx.Vec4) {
			qpx.Load4(acc[base+i:]).Sub(d).Store4(acc[base+i:])
		}
		sub(r.acc[qr], diff(row.fr))
		sub(r.acc[qn], diff(row.fun))
		sub(r.acc[qt1], diff(row.fut1))
		sub(r.acc[qt2], diff(row.fut2))
		sub(r.acc[qe], diff(row.fe))
		g := qpx.Load4(zs.G[so+i:])
		pi := qpx.Load4(zs.Pi[so+i:])
		sub(r.acc[qg], diff(row.fg).Sub(g.Mul(du)))
		sub(r.acc[qp], diff(row.fpi).Sub(pi.Mul(du)))
	}
}

// reconstructPlane reconstructs the four cells ix..ix+3 of a face plane
// whose stencil runs across six SoA arrays rows (c0..c5 are the base
// offsets of the six stencil rows/slices at cell ix).
func reconstructPlane(arrs *[7][6][]float64, offs [6]int, ix int) (m, p faceStateV) {
	rec := func(q int) (qpx.Vec4, qpx.Vec4) {
		a := &arrs[q]
		c0 := qpx.Load4(a[0][offs[0]+ix:])
		c1 := qpx.Load4(a[1][offs[1]+ix:])
		c2 := qpx.Load4(a[2][offs[2]+ix:])
		c3 := qpx.Load4(a[3][offs[3]+ix:])
		c4 := qpx.Load4(a[4][offs[4]+ix:])
		c5 := qpx.Load4(a[5][offs[5]+ix:])
		return wenoMinusV(c0, c1, c2, c3, c4), wenoPlusV(c1, c2, c3, c4, c5)
	}
	m.r, p.r = rec(0)
	m.un, p.un = rec(1)
	m.ut1, p.ut1 = rec(2)
	m.ut2, p.ut2 = rec(3)
	m.p, p.p = rec(4)
	m.g, p.g = rec(5)
	m.pi, p.pi = rec(6)
	// First-order fallback for non-physical lanes: the minus center is the
	// stencil row 2, the plus center row 3.
	cen := func(row int) faceStateV {
		ld := func(q int) qpx.Vec4 { return qpx.Load4(arrs[q][row][offs[row]+ix:]) }
		return faceStateV{r: ld(0), un: ld(1), ut1: ld(2), ut2: ld(3), p: ld(4), g: ld(5), pi: ld(6)}
	}
	m = safeguardV(m, cen(2))
	p = safeguardV(p, cen(3))
	return
}

// ySweepVec accumulates the y-direction flux differences of layer z,
// vectorizing across x. Flux rows at faces f and f+1 ping-pong between
// rowA and rowB.
func (r *RHSVec) ySweepVec(z int) {
	n := r.N
	zs := r.ring.At(z)
	prev, cur := r.rowA, r.rowB

	computeRow := func(f int, dst *fluxPlane) {
		// Stencil rows f-3..f+2; normal velocity is V, tangentials U, W.
		var arrs [7][6][]float64
		var offs [6]int
		for k := 0; k < 6; k++ {
			arrs[0][k] = zs.R
			arrs[1][k] = zs.V
			arrs[2][k] = zs.U
			arrs[3][k] = zs.W
			arrs[4][k] = zs.P
			arrs[5][k] = zs.G
			arrs[6][k] = zs.Pi
			offs[k] = zs.Idx(0, f-3+k)
		}
		for ix := 0; ix < n; ix += qpx.Width {
			m, p := reconstructPlane(&arrs, offs, ix)
			storeFluxV(dst, ix, hlleFaceV(m, p))
		}
	}

	computeRow(0, prev)
	for f := 1; f <= n; f++ {
		computeRow(f, cur)
		// Accumulate cells of row f-1 between faces f-1 (prev) and f (cur).
		base := (z*n + f - 1) * n
		so := zs.Idx(0, f-1)
		for i := 0; i < n; i += qpx.Width {
			diff := func(lo, hi []float64) qpx.Vec4 {
				return qpx.Load4(hi[i:]).Sub(qpx.Load4(lo[i:]))
			}
			du := diff(prev.ustar, cur.ustar)
			sub := func(acc []float64, d qpx.Vec4) {
				qpx.Load4(acc[base+i:]).Sub(d).Store4(acc[base+i:])
			}
			sub(r.acc[qr], diff(prev.fr, cur.fr))
			sub(r.acc[qv], diff(prev.fun, cur.fun))
			sub(r.acc[qu], diff(prev.fut1, cur.fut1))
			sub(r.acc[qw], diff(prev.fut2, cur.fut2))
			sub(r.acc[qe], diff(prev.fe, cur.fe))
			g := qpx.Load4(zs.G[so+i:])
			pi := qpx.Load4(zs.Pi[so+i:])
			sub(r.acc[qg], diff(prev.fg, cur.fg).Sub(g.Mul(du)))
			sub(r.acc[qp], diff(prev.fpi, cur.fpi).Sub(pi.Mul(du)))
		}
		prev, cur = cur, prev
	}
}

// zFaceVec fills dst with the HLLE fluxes across z-face f, vectorizing
// across x.
func (r *RHSVec) zFaceVec(f int, dst *fluxPlane) {
	n := r.N
	var s [6]*ZSlice
	for k := range s {
		s[k] = r.ring.At(f - 3 + k)
	}
	for iy := 0; iy < n; iy++ {
		var arrs [7][6][]float64
		var offs [6]int
		for k := 0; k < 6; k++ {
			arrs[0][k] = s[k].R
			arrs[1][k] = s[k].W
			arrs[2][k] = s[k].U
			arrs[3][k] = s[k].V
			arrs[4][k] = s[k].P
			arrs[5][k] = s[k].G
			arrs[6][k] = s[k].Pi
			offs[k] = s[k].Idx(0, iy)
		}
		for ix := 0; ix < n; ix += qpx.Width {
			m, p := reconstructPlane(&arrs, offs, ix)
			ff := hlleFaceV(m, p)
			j := iy*n + ix
			ff.fr.Store4(dst.fr[j:])
			ff.fun.Store4(dst.fun[j:])
			ff.fut1.Store4(dst.fut1[j:])
			ff.fut2.Store4(dst.fut2[j:])
			ff.fe.Store4(dst.fe[j:])
			ff.fg.Store4(dst.fg[j:])
			ff.fpi.Store4(dst.fpi[j:])
			ff.ustar.Store4(dst.ustar[j:])
		}
	}
}

// accumulateZVec adds the z-direction flux differences of layer z.
func (r *RHSVec) accumulateZVec(z int) {
	n := r.N
	zs := r.ring.At(z)
	lo, hi := r.zPrev, r.zCur
	for iy := 0; iy < n; iy++ {
		o := zs.Idx(0, iy)
		base := (z*n + iy) * n
		j0 := iy * n
		for ix := 0; ix < n; ix += qpx.Width {
			j := j0 + ix
			diff := func(a, b []float64) qpx.Vec4 {
				return qpx.Load4(b[j:]).Sub(qpx.Load4(a[j:]))
			}
			du := diff(lo.ustar, hi.ustar)
			sub := func(acc []float64, d qpx.Vec4) {
				qpx.Load4(acc[base+ix:]).Sub(d).Store4(acc[base+ix:])
			}
			sub(r.acc[qr], diff(lo.fr, hi.fr))
			sub(r.acc[qw], diff(lo.fun, hi.fun))
			sub(r.acc[qu], diff(lo.fut1, hi.fut1))
			sub(r.acc[qv], diff(lo.fut2, hi.fut2))
			sub(r.acc[qe], diff(lo.fe, hi.fe))
			g := qpx.Load4(zs.G[o+ix:])
			pi := qpx.Load4(zs.Pi[o+ix:])
			sub(r.acc[qg], diff(lo.fg, hi.fg).Sub(g.Mul(du)))
			sub(r.acc[qp], diff(lo.fpi, hi.fpi).Sub(pi.Mul(du)))
		}
	}
}
