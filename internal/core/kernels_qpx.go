package core

import "cubism/internal/qpx"

// Vector variants of the streaming kernels. UP gains nothing from
// vectorization (it is memory-bound at 0.2 FLOP/B, Table 3); SOS benefits
// from the lane-parallel max reduction.

// UpdateQPX is the vector UP stage: identical arithmetic to UpdateScalar,
// four values per step. len(u) must be a multiple of the vector width
// (always true for whole blocks: N³·7 with N divisible by 4).
func UpdateQPX(u, reg, rhs []float32, a, b, dt float64) {
	va, vb, vdt := qpx.Splat(a), qpx.Splat(b), qpx.Splat(dt)
	n := len(u)
	for i := 0; i < n; i += qpx.Width {
		r := va.Mul(qpx.Load4f(reg[i:]))
		r = vdt.MAdd(qpx.Load4f(rhs[i:]), r)
		r.Store4f(reg[i:])
		vb.MAdd(r, qpx.Load4f(u[i:])).Store4f(u[i:])
	}
}

// MaxCharVelQPX is the vector SOS kernel: four cells per step, gathered
// from the AoS block layout (the QPX original performs this AoS/SoA
// conversion with inter-lane permutations), with a final horizontal max.
func MaxCharVelQPX(data []float32) float64 {
	maxV := qpx.Zero()
	ncells := len(data) / nq
	gather := func(base, q int) qpx.Vec4 {
		return qpx.New(
			float64(data[base+q]),
			float64(data[base+nq+q]),
			float64(data[base+2*nq+q]),
			float64(data[base+3*nq+q]),
		)
	}
	for c := 0; c+qpx.Width <= ncells; c += qpx.Width {
		base := c * nq
		r := gather(base, qr)
		inv := r.Recip()
		u := gather(base, qu).Mul(inv)
		v := gather(base, qv).Mul(inv)
		w := gather(base, qw).Mul(inv)
		g := gather(base, qg)
		pi := gather(base, qp)
		e := gather(base, qe)
		ke := u.Mul(u).Add(v.Mul(v)).Add(w.Mul(w)).Mul(r).Mul(vHalf)
		p := e.Sub(ke).Sub(pi).Div(g)
		c2 := g.Add(vOne).MAdd(p, pi).Div(g.Mul(r)).Max(vZero)
		vel := u.Abs().Max(v.Abs()).Max(w.Abs()).Add(c2.Sqrt())
		maxV = maxV.Max(vel)
	}
	m := maxV.HMax()
	// Scalar tail for cell counts not divisible by the width.
	if rem := ncells % qpx.Width; rem != 0 {
		tail := MaxCharVelScalar(data[(ncells-rem)*nq:])
		if tail > m {
			m = tail
		}
	}
	return m
}
