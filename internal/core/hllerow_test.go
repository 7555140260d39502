package core

import (
	"math"
	"math/rand"
	"testing"
)

// Lane kinds of FuzzHLLERows, each aimed at one branch of the fallback or
// of hlleFace.
const (
	laneOrdinary    = iota // physical states; now and then a non-physical reconstruction
	laneVacuum             // c = 0 and almost no flow: the sp-sm < 1e-12 widening
	laneRightward          // supersonic to the right: the sm > 0 clamp
	laneLeftward           // supersonic to the left: the sp < 0 clamp
	laneBelowVacuum        // (Γ+1)p + Π < 0 everywhere: fallback to cells with c2 < 0
	laneSpecial            // ±0, ±Inf, NaN, subnormals or the fuzzed value in any field
	laneSonic              // c = ±0 and un = ±0 on one side, un = ±c on the other: signed-zero min/max
	laneKinds
)

// fuzzState draws one face state of the given lane kind. dir is the flow
// direction of a supersonic lane; in a sonic lane it picks the side with
// c = ±0 (dir > 0) or the side with un = ±c (dir < 0).
func fuzzState(rng *rand.Rand, kind int, dir float64, specials []float64) faceState {
	s := faceState{
		r:   1 + 999*rng.Float64(),
		un:  100 * (2*rng.Float64() - 1),
		ut1: 100 * (2*rng.Float64() - 1),
		ut2: 100 * (2*rng.Float64() - 1),
		p:   1e5 * (0.5 + rng.Float64()),
		g:   1.5 + 2*rng.Float64(),
		pi:  1e9 * rng.Float64(),
	}
	switch kind {
	case laneOrdinary:
		if rng.Intn(4) == 0 {
			s.r = -s.r
		}
	case laneVacuum:
		s.r, s.un, s.p, s.pi = 1e-20*rng.Float64(), 1e-14*(2*rng.Float64()-1), 0, 0
	case laneRightward, laneLeftward:
		s.pi = 0
		s.un = dir * (1e4 + 1e4*rng.Float64())
	case laneBelowVacuum:
		s.p = -(s.pi+1e5)/(s.g+1) - 1e5*rng.Float64()
	case laneSonic:
		sign := func() float64 { return math.Copysign(1, 2*rng.Float64()-1) }
		if dir > 0 {
			z := math.Copysign(0, sign()) // c2 = z/(g*r), so c = z too
			s.un, s.p, s.pi = math.Copysign(0, sign()), z, z
		} else {
			s.r, s.un, s.p, s.g, s.pi = 1, 2*sign(), 2, 1, 0 // c = 2 exactly
		}
	case laneSpecial:
		fields := [nq]*float64{&s.r, &s.un, &s.ut1, &s.ut2, &s.p, &s.g, &s.pi}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			*fields[rng.Intn(nq)] = specials[rng.Intn(len(specials))]
		}
	}
	return s
}

// setLane writes s into lane i of the seven rows v.
func setLane(v *[nq][]float64, i int, s faceState) {
	v[0][i], v[1][i], v[2][i], v[3][i] = s.r, s.un, s.ut1, s.ut2
	v[4][i], v[5][i], v[6][i] = s.p, s.g, s.pi
}

// FuzzHLLERows: hlleRow equals, lane by lane and bit for bit, the per-face
// chain it replaces: physical, then cellState for a failing side, then
// hlleFace. Rows of 1–40 lanes start at base offsets 0–7 (odd offsets
// misalign every vector load and store); each lane is ordinary, vacuum-like,
// supersonic either way, below the stiffened vacuum, sprinkled with special
// values, or sonic with zeros of either sign. A NaN result only has to be a
// NaN. Lanes of dst outside the row stay untouched. Both dispatches are
// checked.
func FuzzHLLERows(f *testing.F) {
	f.Add(uint8(8), uint8(1), int64(1), 1.0)
	f.Fuzz(func(t *testing.T, lanes, offset uint8, seed int64, special float64) {
		n := 1 + int(lanes)%40
		off := int(offset) % 8
		specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
			5e-324, -2.5e-310, special}
		rng := rand.New(rand.NewSource(seed))
		row := func() []float64 { return make([]float64, off+n)[off:] }
		var ms, ps, cl, cr [nq][]float64
		var st [nq]stencil
		for q := 0; q < nq; q++ {
			ms[q], ps[q], cl[q], cr[q] = row(), row(), row(), row()
			st[q][sw-1], st[q][sw] = cl[q], cr[q]
		}
		for i := 0; i < n; i++ {
			kind := rng.Intn(laneKinds)
			dir := 1.0
			if kind == laneLeftward || kind == laneSonic && rng.Intn(2) == 0 {
				dir = -1
			}
			pdir := dir
			if kind == laneSonic {
				pdir = -dir
			}
			setLane(&ms, i, fuzzState(rng, kind, dir, specials))
			setLane(&ps, i, fuzzState(rng, kind, pdir, specials))
			setLane(&cl, i, fuzzState(rng, kind, dir, specials))
			setLane(&cr, i, fuzzState(rng, kind, pdir, specials))
		}

		const sentinel = -1234.5
		dst := newFluxPlane(off + n + 4)
		out := [8][]float64{dst.fr, dst.fun, dst.fut1, dst.fut2, dst.fe, dst.fg, dst.fpi, dst.ustar}
		for _, avx2 := range dispatches() {
			for _, o := range out {
				for j := range o {
					o[j] = sentinel
				}
			}
			hlleRow(&ms, &ps, &st, dst, off, n, avx2)
			for j := range dst.fr {
				i := j - off
				if i < 0 || i >= n {
					for k, o := range out {
						if o[j] != sentinel {
							t.Fatalf("avx2=%v: output %d written at %d, outside the row [%d,%d)", avx2, k, j, off, off+n)
						}
					}
					continue
				}
				m, p := loadState(&ms, i), loadState(&ps, i)
				if !physical(m) {
					m = cellState(&st, sw-1, i)
				}
				if !physical(p) {
					p = cellState(&st, sw, i)
				}
				ff := hlleFace(m, p)
				want := [8]float64{ff.fr, ff.fun, ff.fut1, ff.fut2, ff.fe, ff.fg, ff.fpi, ff.ustar}
				for k, o := range out {
					got := o[j]
					if math.IsNaN(want[k]) && math.IsNaN(got) {
						continue
					}
					if math.Float64bits(got) != math.Float64bits(want[k]) {
						t.Fatalf("avx2=%v lane %d of %d, output %d: got %v (%#x), hlleFace %v (%#x)\nminus %+v\nplus  %+v",
							avx2, i, n, k, got, math.Float64bits(got), want[k], math.Float64bits(want[k]), m, p)
					}
				}
			}
		}
	})
}

// TestHLLERowShortOperand: a row shorter than n panics before any lane is
// computed, whichever kernel would run.
func TestHLLERowShortOperand(t *testing.T) {
	const n = 8
	withDispatch(t, func(t *testing.T, avx2 bool) {
		var ms, ps [nq][]float64
		var st [nq]stencil
		for q := 0; q < nq; q++ {
			ms[q], ps[q] = make([]float64, n), make([]float64, n)
			st[q][sw-1], st[q][sw] = make([]float64, n), make([]float64, n)
			for i := 0; i < n; i++ {
				ms[q][i], ps[q][i], st[q][sw-1][i], st[q][sw][i] = 1, 1, 1, 1
			}
		}
		st[qp][sw] = st[qp][sw][:n-1]
		dst := newFluxPlane(n)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("hlleRow accepted a cell row shorter than the face row")
				}
			}()
			hlleRow(&ms, &ps, &st, dst, 0, n, avx2)
		}()
		for j, v := range dst.fr {
			if v != 0 {
				t.Fatalf("lane %d computed before the panic: fr = %v", j, v)
			}
		}
	})
}

// TestHLLEDegenerateFan: the branches hlleFace takes only off the smooth
// path. A vacuum-like state on both sides (no sound speed, almost no flow)
// widens the fan to ±5e-13 and still gives finite fluxes, with ustar inside
// the widened fan; a state below the stiffened vacuum has sound speed +0.
// The row kernel reproduces both under either dispatch.
func TestHLLEDegenerateFan(t *testing.T) {
	vac := func(un float64) faceState { return faceState{r: 1e-20, un: un, g: 2.5} }
	below := faceState{r: 1000, un: 3, p: -1e9, g: 2.5, pi: 1e9}
	if c := soundSpeed(below); math.Float64bits(c) != 0 {
		t.Fatalf("soundSpeed below the stiffened vacuum = %v, want +0", c)
	}
	if c := soundSpeed(vac(0)); c != 0 {
		t.Fatalf("soundSpeed of a vacuum-like state = %v, want 0", c)
	}
	pairs := [][2]faceState{
		{vac(1e-14), vac(-2e-14)},
		{vac(0), vac(0)},
		{vac(-3e-13), vac(-3e-13)},
		{below, below},
		{vac(2e-14), below},
	}
	for _, pr := range pairs[:3] {
		ff := hlleFace(pr[0], pr[1])
		for k, v := range [8]float64{ff.fr, ff.fun, ff.fut1, ff.fut2, ff.fe, ff.fg, ff.fpi, ff.ustar} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("vacuum fan %+v: output %d = %v", pr, k, v)
			}
		}
		if ff.ustar < -5e-13 || ff.ustar > 5e-13 {
			t.Errorf("vacuum fan %+v: ustar %v outside [-5e-13, 5e-13]", pr, ff.ustar)
		}
	}
	if ff := hlleFace(below, below); ff.fr != 3000 || ff.ustar != 3 {
		t.Errorf("c = 0 on both sides: fr %v, ustar %v; want the upwind 3000, 3", ff.fr, ff.ustar)
	}

	withDispatch(t, func(t *testing.T, avx2 bool) {
		n := len(pairs)
		var ms, ps, cl, cr [nq][]float64
		var st [nq]stencil
		for q := 0; q < nq; q++ {
			ms[q], ps[q], cl[q], cr[q] = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
			st[q][sw-1], st[q][sw] = cl[q], cr[q]
		}
		for i, pr := range pairs {
			setLane(&ms, i, pr[0])
			setLane(&cl, i, pr[0])
			setLane(&ps, i, pr[1])
			setLane(&cr, i, pr[1])
		}
		dst := newFluxPlane(n)
		hlleRow(&ms, &ps, &st, dst, 0, n, avx2)
		for i, pr := range pairs {
			if got, want := dst.load(i), hlleFace(pr[0], pr[1]); got != want {
				t.Errorf("lane %d: hlleRow %+v, hlleFace %+v", i, got, want)
			}
		}
	})
}

// load reads one face flux from SoA position f.
func (fp *fluxPlane) load(f int) faceFlux {
	return faceFlux{
		fr: fp.fr[f], fun: fp.fun[f], fut1: fp.fut1[f], fut2: fp.fut2[f],
		fe: fp.fe[f], fg: fp.fg[f], fpi: fp.fpi[f], ustar: fp.ustar[f],
	}
}
