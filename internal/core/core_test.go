package core

import (
	"math"
	"testing"

	"cubism/internal/grid"
	"cubism/internal/physics"
)

// fillGrid initializes every cell of g from a primitive-state field.
func fillGrid(g *grid.Grid, f func(x, y, z float64) physics.Prim) {
	for _, b := range g.Blocks {
		n := b.N
		for iz := 0; iz < n; iz++ {
			for iy := 0; iy < n; iy++ {
				for ix := 0; ix < n; ix++ {
					x, y, z := g.CellCenter(b.X*n+ix, b.Y*n+iy, b.Z*n+iz)
					c := f(x, y, z).ToCons()
					cell := b.At(ix, iy, iz)
					cell[qr] = float32(c.R)
					cell[qu] = float32(c.RU)
					cell[qv] = float32(c.RV)
					cell[qw] = float32(c.RW)
					cell[qe] = float32(c.E)
					cell[qg] = float32(c.G)
					cell[qp] = float32(c.Pi)
				}
			}
		}
	}
}

func smallGrid(n, nb int) *grid.Grid {
	return grid.New(grid.Desc{N: n, NBX: nb, NBY: nb, NBZ: nb, H: 1.0 / float64(n*nb)})
}

// smoothField is a smooth, fully 3D test state.
func smoothField(x, y, z float64) physics.Prim {
	s := math.Sin(2 * math.Pi * x)
	c := math.Cos(2 * math.Pi * y)
	t := math.Sin(2 * math.Pi * z)
	return physics.Prim{
		Rho: 1.5 + 0.3*s*c,
		U:   0.2 * c * t,
		V:   -0.1 * s * t,
		W:   0.15 * s * c,
		P:   2 + 0.5*c*t,
		G:   2.5 + 0.4*s*t,
		Pi:  0.3 + 0.1*c,
	}
}

// rhsKernel is one RHS evaluation of a block: the row driver, the Vec4
// driver or the per-face oracle.
type rhsKernel interface {
	Compute(lab *grid.Lab, h float64, out []float32)
}

// computeRHSBlocks evaluates the RHS of every block of g with r.
func computeRHSBlocks(t *testing.T, g *grid.Grid, bc grid.BC, r rhsKernel) [][]float32 {
	t.Helper()
	n := g.N
	lab := grid.NewLab(n)
	outs := make([][]float32, len(g.Blocks))
	for i, b := range g.Blocks {
		lab.Load(g, bc, b)
		outs[i] = make([]float32, n*n*n*nq)
		r.Compute(lab, g.H, outs[i])
	}
	return outs
}

// namedKernel is an RHS evaluator with its subtest name.
type namedKernel struct {
	name string
	r    rhsKernel
}

// rhsKernels are the four RHS evaluators the cross-checks compare, under
// subtest names older than the row driver: the row driver on the Go loops
// ("scalar-fused") and on the CPU's native row kernels, AVX2 where it has
// them ("qpx-staged"; the row driver stages a row's face states before
// HLLE), the per-face oracle ("scalar-staged") and the Vec4 driver
// ("qpx-fused").
func rhsKernels(n int) []namedKernel {
	return []namedKernel{
		{"scalar-fused", NewRHSGo(n)},
		{"scalar-staged", newStagedRHS(n)},
		{"qpx-fused", NewRHSVec(n)},
		{"qpx-staged", NewRHS(n)},
	}
}

func TestRHSUniformIsZero(t *testing.T) {
	g := smallGrid(8, 2)
	uniform := physics.Prim{Rho: 1000, U: 3, V: -2, W: 1, P: 1e7, G: physics.Liquid.G(), Pi: physics.Liquid.P()}
	fillGrid(g, func(x, y, z float64) physics.Prim { return uniform })
	for _, k := range rhsKernels(8) {
		t.Run(k.name, func(t *testing.T) {
			outs := computeRHSBlocks(t, g, grid.PeriodicBC(), k.r)
			// Scale: fluxes ~ E*u ~ 1e7*3; differences should cancel to
			// float32 roundoff of the inputs.
			for bi, out := range outs {
				for i, v := range out {
					if math.Abs(float64(v)) > 1e-1*1e7*g.H/g.H*1e-6 {
						// tolerance: 1e-6 relative to flux magnitude 1e7
						t.Fatalf("block %d elem %d: RHS=%g, want ~0", bi, i, v)
					}
				}
			}
		})
	}
}

func TestRHSScalarVectorAgree(t *testing.T) {
	g := smallGrid(8, 2)
	fillGrid(g, smoothField)
	bc := grid.PeriodicBC()
	ks := rhsKernels(8)
	s := computeRHSBlocks(t, g, bc, ks[0].r)
	for _, k := range ks[1:] {
		o := computeRHSBlocks(t, g, bc, k.r)
		for bi := range s {
			for i := range s[bi] {
				ref := float64(s[bi][i])
				scale := math.Max(math.Abs(ref), 1)
				if math.Abs(float64(o[bi][i])-ref)/scale > 1e-5 {
					t.Fatalf("block %d elem %d: %s=%g, %s=%g", bi, i, k.name, o[bi][i], ks[0].name, ref)
				}
			}
		}
	}
}

// TestRHSContactPreservation checks the interface-capturing property the
// reconstruction of Γ and Π buys (paper §3): a stationary contact
// discontinuity in density and material functions with uniform pressure and
// zero velocity must keep pressure and velocity exactly uniform.
func TestRHSContactPreservation(t *testing.T) {
	g := smallGrid(8, 2)
	const p0 = 5e6
	field := func(x, y, z float64) physics.Prim {
		a := 0.0 // vapor fraction
		if x > 0.5 {
			a = 1
		}
		gm, pi := physics.Mix(physics.Liquid, physics.Vapor, a)
		rho := 1000.0*(1-a) + 1.0*a
		return physics.Prim{Rho: rho, P: p0, G: gm, Pi: pi}
	}
	fillGrid(g, field)
	outs := computeRHSBlocks(t, g, grid.DefaultBC(), NewRHS(8))

	// Forward-Euler update with a small dt, then verify p and u uniform.
	dt := 1e-9
	for bi, b := range g.Blocks {
		out := outs[bi]
		for i := range b.Data {
			b.Data[i] = float32(float64(b.Data[i]) + dt*float64(out[i]))
		}
		n := b.N
		for iz := 0; iz < n; iz++ {
			for iy := 0; iy < n; iy++ {
				for ix := 0; ix < n; ix++ {
					c := b.At(ix, iy, iz)
					cons := physics.Cons{
						R: float64(c[qr]), RU: float64(c[qu]), RV: float64(c[qv]), RW: float64(c[qw]),
						E: float64(c[qe]), G: float64(c[qg]), Pi: float64(c[qp]),
					}
					pr := cons.ToPrim()
					if math.Abs(pr.P-p0)/p0 > 2e-5 {
						t.Fatalf("pressure disturbed at contact: p=%g want %g", pr.P, p0)
					}
					if vmag := math.Abs(pr.U) + math.Abs(pr.V) + math.Abs(pr.W); vmag > 1e-3 {
						t.Fatalf("velocity disturbed at contact: |u|=%g", vmag)
					}
				}
			}
		}
	}
}

func TestHLLEConsistency(t *testing.T) {
	s := faceState{r: 2, un: 1.5, ut1: -0.5, ut2: 0.25, p: 3, g: 2.5, pi: 0.7}
	ff := hlleFace(s, s)
	e := s.g*s.p + s.pi + 0.5*s.r*(s.un*s.un+s.ut1*s.ut1+s.ut2*s.ut2)
	want := faceFlux{
		fr:    s.r * s.un,
		fun:   s.r*s.un*s.un + s.p,
		fut1:  s.r * s.un * s.ut1,
		fut2:  s.r * s.un * s.ut2,
		fe:    (e + s.p) * s.un,
		fg:    s.g * s.un,
		fpi:   s.pi * s.un,
		ustar: s.un,
	}
	got := []float64{ff.fr, ff.fun, ff.fut1, ff.fut2, ff.fe, ff.fg, ff.fpi, ff.ustar}
	exp := []float64{want.fr, want.fun, want.fut1, want.fut2, want.fe, want.fg, want.fpi, want.ustar}
	for i := range got {
		if math.Abs(got[i]-exp[i]) > 1e-12*math.Max(1, math.Abs(exp[i])) {
			t.Errorf("flux[%d] = %g, want %g", i, got[i], exp[i])
		}
	}
}

func TestHLLEUpwindForSupersonic(t *testing.T) {
	// Supersonic flow to the right: the flux must be the left physical flux.
	m := faceState{r: 1, un: 10, ut1: 0, ut2: 0, p: 1, g: 2.5, pi: 0}
	p := faceState{r: 0.5, un: 10, ut1: 0, ut2: 0, p: 0.8, g: 2.5, pi: 0}
	ff := hlleFace(m, p)
	if math.Abs(ff.fr-m.r*m.un) > 1e-12 {
		t.Errorf("supersonic mass flux %g, want %g", ff.fr, m.r*m.un)
	}
	if math.Abs(ff.ustar-m.un) > 1e-12 {
		t.Errorf("supersonic ustar %g, want %g", ff.ustar, m.un)
	}
}

func TestWENOConstantExact(t *testing.T) {
	if got := wenoMinus(3, 3, 3, 3, 3); math.Abs(got-3) > 1e-14 {
		t.Errorf("wenoMinus(const) = %g", got)
	}
	if got := wenoPlus(3, 3, 3, 3, 3); math.Abs(got-3) > 1e-14 {
		t.Errorf("wenoPlus(const) = %g", got)
	}
}

// TestWENOSmoothOrder verifies high-order convergence on a smooth profile.
func TestWENOSmoothOrder(t *testing.T) {
	f := func(x float64) float64 { return math.Sin(x) }
	// avg returns the exact cell average of sin over [x-h/2, x+h/2]; the
	// finite-volume WENO5 scheme reconstructs the face point value from
	// cell averages.
	avg := func(x, h float64) float64 {
		return (math.Cos(x-h/2) - math.Cos(x+h/2)) / h
	}
	errAt := func(h float64) float64 {
		// Cells i-2..i+2 centered at 0; reconstruct the value at face h/2.
		var c [5]float64
		for k := range c {
			c[k] = avg(float64(k-2)*h, h)
		}
		got := wenoMinus(c[0], c[1], c[2], c[3], c[4])
		return math.Abs(got - f(h/2))
	}
	e1 := errAt(0.1)
	e2 := errAt(0.05)
	order := math.Log2(e1 / e2)
	if order < 4.5 {
		t.Errorf("WENO5 observed order %.2f, want >= 4.5 (e1=%g e2=%g)", order, e1, e2)
	}
}

// TestWENONoOvershoot verifies the essentially non-oscillatory property at
// a step: the reconstructed value stays within the data range.
func TestWENONoOvershoot(t *testing.T) {
	got := wenoMinus(0, 0, 0, 1, 1)
	if got < -1e-8 || got > 1+1e-8 {
		t.Errorf("reconstruction %g overshoots [0,1]", got)
	}
	got = wenoPlus(0, 0, 1, 1, 1)
	if got < -1e-8 || got > 1+1e-8 {
		t.Errorf("reconstruction %g overshoots [0,1]", got)
	}
}

func TestUpdateScalarVsQPX(t *testing.T) {
	n := 512
	u1 := make([]float32, n)
	r1 := make([]float32, n)
	rhs := make([]float32, n)
	for i := range u1 {
		u1[i] = float32(i%17) - 8
		r1[i] = float32(i%5) * 0.25
		rhs[i] = float32(i%11) - 5.5
	}
	u2 := append([]float32(nil), u1...)
	r2 := append([]float32(nil), r1...)
	UpdateScalar(u1, r1, rhs, -5.0/9.0, 15.0/16.0, 1e-3)
	UpdateQPX(u2, r2, rhs, -5.0/9.0, 15.0/16.0, 1e-3)
	for i := range u1 {
		if u1[i] != u2[i] || r1[i] != r2[i] {
			t.Fatalf("elem %d: scalar (%g,%g) vs qpx (%g,%g)", i, u1[i], r1[i], u2[i], r2[i])
		}
	}
}

func TestMaxCharVelScalarVsQPX(t *testing.T) {
	g := smallGrid(8, 1)
	fillGrid(g, smoothField)
	for _, b := range g.Blocks {
		s := MaxCharVelScalar(b.Data)
		v := MaxCharVelQPX(b.Data)
		if math.Abs(s-v)/s > 1e-12 {
			t.Fatalf("charvel scalar %g vs qpx %g", s, v)
		}
		if s <= 0 {
			t.Fatalf("charvel %g not positive", s)
		}
	}
}

func TestRingBufferReuse(t *testing.T) {
	g := smallGrid(8, 1)
	fillGrid(g, smoothField)
	lab := grid.NewLab(8)
	lab.Load(g, grid.PeriodicBC(), g.Blocks[0])
	ring := NewRing(8)
	for z := -3; z <= 3; z++ {
		ring.Load(lab, z)
	}
	if ring.At(0).Z != 0 || ring.At(3).Z != 3 || ring.At(-3).Z != -3 {
		t.Fatal("ring slot mapping broken")
	}
	// Loading z=4 evicts z=-3.
	ring.Load(lab, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on evicted slice access")
		}
	}()
	ring.At(-3)
}

// TestRKSchemesConsistency: both Runge-Kutta formulations must advance the
// state by exactly dt for a constant unit right-hand side (first-order
// consistency), despite their very different register usage.
func TestRKSchemesConsistency(t *testing.T) {
	const n = 64
	const dt = 0.5
	rhs := make([]float32, n)
	for i := range rhs {
		rhs[i] = 1
	}
	// Low-storage 2N scheme.
	u := make([]float32, n)
	reg := make([]float32, n)
	for s := 0; s < 3; s++ {
		UpdateScalar(u, reg, rhs, RK3A[s], RK3B[s], dt)
	}
	for i := range u {
		if math.Abs(float64(u[i])-dt) > 1e-6 {
			t.Fatalf("lsrk3: u[%d] = %g, want %g", i, u[i], dt)
		}
	}
	// Three-register SSP scheme.
	u2 := make([]float32, n)
	u0 := make([]float32, n)
	for s := 0; s < 3; s++ {
		UpdateSSP(u2, u0, rhs, s, dt)
	}
	for i := range u2 {
		if math.Abs(float64(u2[i])-dt) > 1e-6 {
			t.Fatalf("ssprk3: u[%d] = %g, want %g", i, u2[i], dt)
		}
	}
}

// TestConvertVecMatchesScalar: the vectorized CONV stage must produce the
// same primitive slices as the scalar conversion.
func TestConvertVecMatchesScalar(t *testing.T) {
	g := smallGrid(8, 1)
	fillGrid(g, smoothField)
	lab := grid.NewLab(8)
	lab.Load(g, grid.PeriodicBC(), g.Blocks[0])
	a := NewZSlice(8)
	b := NewZSlice(8)
	for z := -3; z < 11; z++ {
		a.Convert(lab, z)
		b.ConvertVec(lab, z)
		arrays := [][2][]float64{
			{a.R, b.R}, {a.U, b.U}, {a.V, b.V}, {a.W, b.W},
			{a.P, b.P}, {a.G, b.G}, {a.Pi, b.Pi},
		}
		for qi, pair := range arrays {
			for i := range pair[0] {
				d := math.Abs(pair[0][i] - pair[1][i])
				if d > 1e-12*(1+math.Abs(pair[0][i])) {
					t.Fatalf("z=%d quantity %d offset %d: scalar %g vs vec %g", z, qi, i, pair[0][i], pair[1][i])
				}
			}
		}
	}
}

// TestRHSRotationEquivariance: the discretization treats the three
// directions symmetrically, so rotating the input field by a cyclic axis
// permutation must rotate the RHS the same way (no directional bias).
func TestRHSRotationEquivariance(t *testing.T) {
	const n = 8
	base := func(x, y, z float64) physics.Prim {
		return physics.Prim{
			Rho: 1.5 + 0.3*math.Sin(2*math.Pi*x)*math.Cos(2*math.Pi*y),
			U:   0.2 * math.Sin(2*math.Pi*y) * math.Cos(2*math.Pi*z),
			V:   -0.1 * math.Sin(2*math.Pi*z) * math.Cos(2*math.Pi*x),
			W:   0.15 * math.Sin(2*math.Pi*x) * math.Cos(2*math.Pi*y),
			P:   2 + 0.5*math.Cos(2*math.Pi*z),
			G:   2.5 + 0.4*math.Sin(2*math.Pi*x),
			Pi:  0.3,
		}
	}
	// Rotation R: (x,y,z) -> (y,z,x); states transform with the cyclic
	// velocity permutation (u,v,w) -> (w,u,v) [u' along x' = old w? work it
	// out: new axis x' carries the old y direction, so u' = v∘R⁻¹, v' = w,
	// w' = u].
	rotated := func(x, y, z float64) physics.Prim {
		p := base(z, x, y) // R⁻¹(x,y,z) = (z,x,y)
		return physics.Prim{Rho: p.Rho, U: p.V, V: p.W, W: p.U, P: p.P, G: p.G, Pi: p.Pi}
	}

	g1 := smallGrid(n, 1)
	fillGrid(g1, base)
	g2 := smallGrid(n, 1)
	fillGrid(g2, rotated)
	o1 := computeRHSBlocks(t, g1, grid.PeriodicBC(), NewRHS(n))[0]
	o2 := computeRHSBlocks(t, g2, grid.PeriodicBC(), NewRHS(n))[0]

	// Compare: RHS2 at (x,y,z) must equal the permuted RHS1 at R⁻¹(x,y,z).
	idx := func(ix, iy, iz, q int) int { return ((iz*n+iy)*n+ix)*nq + q }
	var maxDiff float64
	for iz := 0; iz < n; iz++ {
		for iy := 0; iy < n; iy++ {
			for ix := 0; ix < n; ix++ {
				// R⁻¹ on indices: (ix,iy,iz) -> (iz,ix,iy).
				jx, jy, jz := iz, ix, iy
				pairs := [][2]int{
					{qr, qr}, {qe, qe}, {qg, qg}, {qp, qp},
					{qu, qv}, {qv, qw}, {qw, qu}, // momenta permute with velocities
				}
				for _, pr := range pairs {
					a := float64(o2[idx(ix, iy, iz, pr[0])])
					b := float64(o1[idx(jx, jy, jz, pr[1])])
					if d := math.Abs(a - b); d > maxDiff {
						maxDiff = d
					}
				}
			}
		}
	}
	if maxDiff > 1e-3 {
		t.Errorf("rotation equivariance violated by %g", maxDiff)
	}
}
