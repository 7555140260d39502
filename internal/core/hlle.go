package core

import "math"

// HLLE approximate Riemann solver (Harten, Lax, van Leer, Einfeldt; paper
// ref. [78]), scalar variant. Given the reconstructed primitive states on
// the two sides of a cell face, it returns the seven numerical fluxes and
// the HLLE-consistent face velocity used by the non-conservative term of
// the material advection equations.

// faceState is one reconstructed primitive state at a face: density, the
// velocity component normal to the face, the two tangential components,
// pressure, and the material functions.
type faceState struct {
	r, un, ut1, ut2, p, g, pi float64
}

// faceFlux collects the HLLE output at one face in sweep-normal order:
// mass, normal momentum, tangential momenta, energy, Γ, Π fluxes plus the
// face velocity for the φ∇·u term.
type faceFlux struct {
	fr, fun, fut1, fut2, fe, fg, fpi float64
	ustar                            float64
}

// hlleFace computes the HLLE flux across a face with minus state m (left of
// the face along the sweep) and plus state p (right of the face).
func hlleFace(m, p faceState) faceFlux {
	cm := soundSpeed(m)
	cp := soundSpeed(p)
	// Davis wave-speed estimates, clamped around zero as the scheme requires.
	sm := min(m.un-cm, p.un-cp)
	sp := max(m.un+cm, p.un+cp)
	if sm > 0 {
		sm = 0
	}
	if sp < 0 {
		sp = 0
	}
	if sp-sm < 1e-12 {
		// Fully degenerate face (vacuum-like state on both sides): widen
		// the fan symmetrically so the combination stays finite; all
		// fluxes are then vanishingly small central averages.
		sp, sm = 5e-13, -5e-13
	}
	inv := 1 / (sp - sm)

	// Conserved states and physical fluxes on both sides.
	kem := 0.5 * m.r * (m.un*m.un + m.ut1*m.ut1 + m.ut2*m.ut2)
	kep := 0.5 * p.r * (p.un*p.un + p.ut1*p.ut1 + p.ut2*p.ut2)
	em := m.g*m.p + m.pi + kem
	ep := p.g*p.p + p.pi + kep

	combine := func(fl, fr, ul, ur float64) float64 {
		return (sp*fl - sm*fr + sp*sm*(ur-ul)) * inv
	}

	var out faceFlux
	out.fr = combine(m.r*m.un, p.r*p.un, m.r, p.r)
	out.fun = combine(m.r*m.un*m.un+m.p, p.r*p.un*p.un+p.p, m.r*m.un, p.r*p.un)
	out.fut1 = combine(m.r*m.un*m.ut1, p.r*p.un*p.ut1, m.r*m.ut1, p.r*p.ut1)
	out.fut2 = combine(m.r*m.un*m.ut2, p.r*p.un*p.ut2, m.r*m.ut2, p.r*p.ut2)
	out.fe = combine((em+m.p)*m.un, (ep+p.p)*p.un, em, ep)
	// Material functions advect with the flow; HLLE applied to the
	// quasi-conservative form ∂φ/∂t + ∇·(φu) - φ∇·u = 0.
	out.fg = combine(m.g*m.un, p.g*p.un, m.g, p.g)
	out.fpi = combine(m.pi*m.un, p.pi*p.un, m.pi, p.pi)
	// HLLE-consistent face velocity: positive-weight average of the two
	// sides, used to discretize the non-conservative φ∇·u term so that
	// uniform φ stays exactly uniform across contacts.
	out.ustar = (sp*m.un - sm*p.un) * inv
	return out
}

// soundSpeed is the mixture sound speed of a face state (see
// physics.SoundSpeed; duplicated on float64 locals to keep the kernel
// self-contained and inlinable).
func soundSpeed(s faceState) float64 {
	c2 := ((s.g+1)*s.p + s.pi) / (s.g * s.r)
	if c2 < 0 {
		return 0
	}
	return math.Sqrt(c2)
}
