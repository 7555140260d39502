// Package core implements the compute kernels of the solver — the paper's
// core layer (§6): RHS evaluation (CONV → WENO → HLLE → SUM → BACK stages,
// Figure 1), the UP update kernel, the SOS/DT reduction, in scalar ("C++")
// and 4-lane vector ("QPX") variants, plus the CONV, WENO5, HLLE, SUM and
// UP row kernels with their AVX2 twins behind the scalar row driver, and
// the count of those twins' instructions behind Table 8.
package core

import (
	"cubism/internal/grid"
	"cubism/internal/physics"
	"cubism/internal/qpx"
)

// Re-exported quantity indices for brevity.
const (
	nq = physics.NQ
	qr = physics.QR
	qu = physics.QU
	qv = physics.QV
	qw = physics.QW
	qe = physics.QE
	qg = physics.QG
	qp = physics.QP
)

// sw is the one-sided stencil width of the WENO5 scheme.
const sw = grid.StencilWidth

// ZSlice holds the primitive quantities of one z-plane of a lab in SoA
// ("data-slice") layout. These are the paper's SIMD-friendly temporary
// structures: converting AoS cells into per-quantity arrays renders the
// stencil sweeps amenable to vectorization (§5, Figure 2 right).
//
// The plane covers lab coordinates [-sw, N+sw) in x and y. The x-stride is
// padded to a multiple of the SIMD width so vector loads never split rows.
type ZSlice struct {
	N int // block edge
	M int // N + 2*sw cells per dimension
	S int // row stride (M rounded up to a multiple of 4)
	// Primitive quantities: density, velocity components, pressure, Γ, Π.
	R, U, V, W, P, G, Pi []float64
	// Z is the lab z-coordinate this slice currently represents.
	Z int
}

// NewZSlice allocates a slice plane for blocks of edge n.
func NewZSlice(n int) *ZSlice {
	m := n + 2*sw
	s := (m + 3) &^ 3
	total := s * m
	backing := make([]float64, 7*total)
	zs := &ZSlice{N: n, M: m, S: s, Z: -1 << 30}
	zs.R = backing[0*total : 1*total]
	zs.U = backing[1*total : 2*total]
	zs.V = backing[2*total : 3*total]
	zs.W = backing[3*total : 4*total]
	zs.P = backing[4*total : 5*total]
	zs.G = backing[5*total : 6*total]
	zs.Pi = backing[6*total : 7*total]
	return zs
}

// Idx converts lab coordinates (ix,iy in [-sw, N+sw)) to the SoA offset.
func (zs *ZSlice) Idx(ix, iy int) int { return (iy+sw)*zs.S + (ix + sw) }

// Convert fills the slice from lab plane z (lab coordinates, may be in
// [-sw, N+sw)). This is the CONV stage: conserved AoS float32 cells become
// primitive SoA float64 arrays via the stiffened equation of state. It runs
// the CONV row kernel, on AVX2 where the CPU has it (hasAVX2).
//
// Only the cross region is converted: for ghost z-planes and ghost y-rows
// the x-range is restricted to the interior, because corner/edge ghosts are
// never filled by the Lab and never read by the directional sweeps.
func (zs *ZSlice) Convert(lab *grid.Lab, z int) { zs.convert(lab, z, hasAVX2) }

// convert is Convert with the row kernel's choice avx2 (see RHS.avx2).
func (zs *ZSlice) convert(lab *grid.Lab, z int, avx2 bool) {
	n := zs.N
	zs.Z = z
	zGhost := z < 0 || z >= n
	for iy := -sw; iy < n+sw; iy++ {
		yGhost := iy < 0 || iy >= n
		x0, x1 := -sw, n+sw
		if zGhost || yGhost {
			x0, x1 = 0, n
		}
		if zGhost && yGhost {
			continue // edge region, never read
		}
		convRow(zs, zs.Idx(x0, iy), lab.Row(x0, iy, z, x1-x0), avx2)
	}
}

// convRow is the CONV row kernel: it converts the len(src)/nq AoS cells of
// src into the primitive rows of zs from offset o on, through the stiffened
// equation of state. The rows must hold the cells; a shorter one panics
// before anything is written. With avx2 set, whole groups of four cells run
// in the assembly twin (convrow_amd64.s), bitwise equal to the Go loop that
// covers the rest.
func convRow(zs *ZSlice, o int, src []float32, avx2 bool) {
	n := len(src) / nq
	if n == 0 {
		return
	}
	// Index, not slice, bounds: a slice expression may reach into a row's
	// capacity past its length.
	e := o + n - 1
	_, _, _, _ = zs.R[e], zs.U[e], zs.V[e], zs.W[e]
	_, _, _ = zs.P[e], zs.G[e], zs.Pi[e]
	R, U, V, W := zs.R[o:][:n], zs.U[o:][:n], zs.V[o:][:n], zs.W[o:][:n]
	P, G, Pi := zs.P[o:][:n], zs.G[o:][:n], zs.Pi[o:][:n]
	k := 0
	if avx2 && n >= 4 {
		k = n &^ 3
		convRowAVX2(&R[0], &U[0], &V[0], &W[0], &P[0], &G[0], &Pi[0], &src[0], k)
	}
	// len(s) >= nq is implied by i < n; it lets the compiler drop the
	// bounds checks on s.
	for i, s := k, src[k*nq:]; i < n && len(s) >= nq; i, s = i+1, s[nq:] {
		r := float64(s[qr])
		inv := 1 / r
		u := float64(s[qu]) * inv
		v := float64(s[qv]) * inv
		w := float64(s[qw]) * inv
		g := float64(s[qg])
		pi := float64(s[qp])
		ke := 0.5 * r * (u*u + v*v + w*w)
		R[i] = r
		U[i] = u
		V[i] = v
		W[i] = w
		P[i] = (float64(s[qe]) - ke - pi) / g
		G[i] = g
		Pi[i] = pi
	}
}

// Ring is the ring buffer of 2*sw+1 primitive slices used by the RHS
// z-sweep ("the ring buffer ... contains 6 slices" plus the incoming one;
// we hold the full 7 needed for both z-faces of the current layer).
type Ring struct {
	slices [2*sw + 1]*ZSlice
}

// NewRing allocates the ring for blocks of edge n.
func NewRing(n int) *Ring {
	var r Ring
	for i := range r.slices {
		r.slices[i] = NewZSlice(n)
	}
	return &r
}

// At returns the slice currently holding lab plane z; it must have been
// loaded via Load and not yet evicted.
func (r *Ring) At(z int) *ZSlice {
	zs := r.slices[((z%len(r.slices))+len(r.slices))%len(r.slices)]
	if zs.Z != z {
		panic("core: ring buffer miss")
	}
	return zs
}

// Load converts lab plane z into its ring slot and returns the slice.
func (r *Ring) Load(lab *grid.Lab, z int) *ZSlice { return r.load(lab, z, hasAVX2) }

// load is Load with the CONV row kernel's choice avx2 (see RHS.avx2).
func (r *Ring) load(lab *grid.Lab, z int, avx2 bool) *ZSlice {
	zs := r.slices[((z%len(r.slices))+len(r.slices))%len(r.slices)]
	zs.convert(lab, z, avx2)
	return zs
}

// ConvertVec is the vectorized CONV stage: four consecutive cells per step,
// gathered from the AoS block layout into lane registers (the QPX code does
// this with vector loads plus inter-lane permutations), converted through
// the equation of state with 4-lane arithmetic, and stored to the SoA
// slice arrays. Ghost rows fall back to the scalar path (partial rows).
func (zs *ZSlice) ConvertVec(lab *grid.Lab, z int) {
	n := zs.N
	zs.Z = z
	zGhost := z < 0 || z >= n
	half := qpx.Splat(0.5)
	for iy := -sw; iy < n+sw; iy++ {
		yGhost := iy < 0 || iy >= n
		if zGhost && yGhost {
			continue // edge region, never read
		}
		x0, x1 := -sw, n+sw
		if zGhost || yGhost {
			x0, x1 = 0, n
		}
		ix := x0
		// Vector main loop over aligned groups of 4 cells.
		for ; ix+qpx.Width <= x1; ix += qpx.Width {
			row := lab.Row(ix, iy, z, qpx.Width)
			gather := func(q int) qpx.Vec4 {
				return qpx.New(
					float64(row[q]), float64(row[nq+q]),
					float64(row[2*nq+q]), float64(row[3*nq+q]),
				)
			}
			o := zs.Idx(ix, iy)
			r := gather(qr)
			inv := r.Recip()
			u := gather(qu).Mul(inv)
			v := gather(qv).Mul(inv)
			w := gather(qw).Mul(inv)
			g := gather(qg)
			pi := gather(qp)
			ke := u.Mul(u).Add(v.Mul(v)).Add(w.Mul(w)).Mul(r).Mul(half)
			p := gather(qe).Sub(ke).Sub(pi).Div(g)
			r.Store4(zs.R[o:])
			u.Store4(zs.U[o:])
			v.Store4(zs.V[o:])
			w.Store4(zs.W[o:])
			p.Store4(zs.P[o:])
			g.Store4(zs.G[o:])
			pi.Store4(zs.Pi[o:])
		}
		// Scalar tail.
		for ; ix < x1; ix++ {
			c := lab.At(ix, iy, z)
			o := zs.Idx(ix, iy)
			r := float64(c[qr])
			inv := 1 / r
			u := float64(c[qu]) * inv
			v := float64(c[qv]) * inv
			w := float64(c[qw]) * inv
			g := float64(c[qg])
			pi := float64(c[qp])
			ke := 0.5 * r * (u*u + v*v + w*w)
			zs.R[o] = r
			zs.U[o] = u
			zs.V[o] = v
			zs.W[o] = w
			zs.P[o] = (float64(c[qe]) - ke - pi) / g
			zs.G[o] = g
			zs.Pi[o] = pi
		}
	}
}

// LoadVec converts lab plane z into its ring slot with the vectorized CONV.
func (r *Ring) LoadVec(lab *grid.Lab, z int) *ZSlice {
	zs := r.slices[((z%len(r.slices))+len(r.slices))%len(r.slices)]
	zs.ConvertVec(lab, z)
	return zs
}
