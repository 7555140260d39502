package core

// Fifth-order Weighted Essentially Non-Oscillatory reconstruction
// (Jiang & Shu 1996, paper ref. [42]), scalar variant. The row kernel over
// unit-stride lanes (and its AVX2 twin) lives in wenorow.go, the vector
// variant in weno_qpx.go.

// wenoEps regularizes the smoothness indicators.
const wenoEps = 1e-6

// WENO5 ideal weights.
const (
	d0 = 0.1
	d1 = 0.6
	d2 = 0.3
)

// wenoMinus reconstructs the left-biased ("minus") face value at the
// interface i+1/2 from the five cell averages a..e = v[i-2..i+2].
func wenoMinus(a, b, c, d, e float64) float64 {
	// Smoothness indicators.
	t1 := a - 2*b + c
	t2 := a - 4*b + 3*c
	b0 := 13.0/12.0*t1*t1 + 0.25*t2*t2
	t1 = b - 2*c + d
	t2 = b - d
	b1 := 13.0/12.0*t1*t1 + 0.25*t2*t2
	t1 = c - 2*d + e
	t2 = 3*c - 4*d + e
	b2 := 13.0/12.0*t1*t1 + 0.25*t2*t2
	// Nonlinear weights.
	w0 := d0 / ((wenoEps + b0) * (wenoEps + b0))
	w1 := d1 / ((wenoEps + b1) * (wenoEps + b1))
	w2 := d2 / ((wenoEps + b2) * (wenoEps + b2))
	inv := 1 / (w0 + w1 + w2)
	w0 *= inv
	w1 *= inv
	w2 *= inv
	// Candidate polynomials.
	q0 := (2*a - 7*b + 11*c) * (1.0 / 6.0)
	q1 := (-b + 5*c + 2*d) * (1.0 / 6.0)
	q2 := (2*c + 5*d - e) * (1.0 / 6.0)
	return w0*q0 + w1*q1 + w2*q2
}

// wenoPlus reconstructs the right-biased ("plus") face value at the
// interface i+1/2 from the five cell averages a..e = v[i-1..i+3]. It is the
// mirror image of wenoMinus.
func wenoPlus(a, b, c, d, e float64) float64 {
	return wenoMinus(e, d, c, b, a)
}
