package core

import "cubism/internal/qpx"

// Instruction-mix audit: the analysis behind Table 8. The paper estimates
// the RHS upper bound from the nominal instruction issue bandwidth by
// inspecting the compiler-generated assembly of the QPX micro-kernels,
// counting as "FLOP" also permutations, negations, conditional moves and
// comparisons, and dividing by the QPX instructions excluding loads and
// stores.
//
// Go compiles the Vec4 model to scalar code, so instead of reading
// assembly we *execute* the same kernels on a counting interpreter: CVec
// mirrors the Vec4 method set and tallies one QPX instruction per call.
// The audited kernels are verified against the production kernels for
// numerical equality (audit_test.go), so the mix corresponds to real code.

// OpClass categorizes QPX instructions.
type OpClass int

// Instruction classes. FMA counts 8 FLOPs (4 lanes x 2); every other
// non-memory class counts 4, following the paper's upper-bound convention.
const (
	OpArith OpClass = iota // add/sub/mul/neg/abs/min/max/cmp
	OpFMA                  // fused multiply-add family
	OpDiv                  // divide / reciprocal / sqrt (software-assisted)
	OpPerm                 // inter-lane permutations
	OpSel                  // conditional select
	OpLoad                 // vector load (excluded from density)
	OpStore                // vector store (excluded from density)
	numOpClasses
)

// Counter tallies the executed instruction mix.
type Counter struct {
	Counts [numOpClasses]int64
}

// Instructions returns the non-memory instruction count.
func (c *Counter) Instructions() int64 {
	var t int64
	for cl, n := range c.Counts {
		if OpClass(cl) != OpLoad && OpClass(cl) != OpStore {
			t += n
		}
	}
	return t
}

// FLOPs returns the FLOP count under the paper's convention.
func (c *Counter) FLOPs() int64 {
	var t int64
	for cl, n := range c.Counts {
		switch OpClass(cl) {
		case OpFMA:
			t += 8 * n
		case OpLoad, OpStore:
		default:
			t += 4 * n
		}
	}
	return t
}

// Density returns the FLOP/instruction density divided by the SIMD width —
// the "x 4" convention of Table 8 (1.0 = pure non-FMA vector arithmetic,
// 2.0 = pure FMA).
func (c *Counter) Density() float64 {
	ins := c.Instructions()
	if ins == 0 {
		return 0
	}
	return float64(c.FLOPs()) / float64(ins) / 4
}

// PeakBound returns the maximum achievable peak fraction implied by the
// issue rate: one QPX instruction per cycle, peak = 8 FLOP/cycle, so the
// bound is Density/2.
func (c *Counter) PeakBound() float64 { return c.Density() / 2 }

// Add merges another counter.
func (c *Counter) Add(o *Counter) {
	for i := range c.Counts {
		c.Counts[i] += o.Counts[i]
	}
}

// CVec is the counting vector register.
type CVec struct {
	V qpx.Vec4
	C *Counter
}

func (a CVec) bin(cl OpClass, v qpx.Vec4) CVec {
	a.C.Counts[cl]++
	return CVec{V: v, C: a.C}
}

// CSplat creates a constant register; constant materialization is not
// counted (the real kernels keep constants resident).
func CSplat(c *Counter, x float64) CVec { return CVec{V: qpx.Splat(x), C: c} }

// CLoad counts a vector load.
func CLoad(c *Counter, s []float64) CVec {
	c.Counts[OpLoad]++
	return CVec{V: qpx.Load4(s), C: c}
}

// Store counts a vector store.
func (a CVec) Store(s []float64) {
	a.C.Counts[OpStore]++
	a.V.Store4(s)
}

// Arithmetic mirror of the Vec4 method set.

// Add returns a+b.
func (a CVec) Add(b CVec) CVec { return a.bin(OpArith, a.V.Add(b.V)) }

// Sub returns a-b.
func (a CVec) Sub(b CVec) CVec { return a.bin(OpArith, a.V.Sub(b.V)) }

// Mul returns a*b.
func (a CVec) Mul(b CVec) CVec { return a.bin(OpArith, a.V.Mul(b.V)) }

// Div returns a/b.
func (a CVec) Div(b CVec) CVec { return a.bin(OpDiv, a.V.Div(b.V)) }

// Recip returns 1/a.
func (a CVec) Recip() CVec { return a.bin(OpDiv, a.V.Recip()) }

// Sqrt returns the lane-wise square root.
func (a CVec) Sqrt() CVec { return a.bin(OpDiv, a.V.Sqrt()) }

// MAdd returns a*b+c.
func (a CVec) MAdd(b, c CVec) CVec { return a.bin(OpFMA, a.V.MAdd(b.V, c.V)) }

// MSub returns a*b-c.
func (a CVec) MSub(b, c CVec) CVec { return a.bin(OpFMA, a.V.MSub(b.V, c.V)) }

// NMSub returns c-a*b.
func (a CVec) NMSub(b, c CVec) CVec { return a.bin(OpFMA, a.V.NMSub(b.V, c.V)) }

// Min returns the lane-wise minimum.
func (a CVec) Min(b CVec) CVec { return a.bin(OpArith, a.V.Min(b.V)) }

// Max returns the lane-wise maximum.
func (a CVec) Max(b CVec) CVec { return a.bin(OpArith, a.V.Max(b.V)) }

// Abs returns |a|.
func (a CVec) Abs() CVec { return a.bin(OpArith, a.V.Abs()) }

// Neg returns -a.
func (a CVec) Neg() CVec { return a.bin(OpArith, a.V.Neg()) }

// Shift returns the stencil-shift permutation of (a,b) by k lanes.
func (a CVec) Shift(b CVec, k int) CVec {
	var v qpx.Vec4
	switch k {
	case 1:
		v = qpx.ShiftL1(a.V, b.V)
	case 2:
		v = qpx.ShiftL2(a.V, b.V)
	case 3:
		v = qpx.ShiftL3(a.V, b.V)
	default:
		v = a.V
	}
	return a.bin(OpPerm, v)
}

// auditWENOMinus replays wenoMinusV on the counting interpreter.
func auditWENOMinus(a, b, c, d, e CVec) CVec {
	cnt := a.C
	vd0 := CSplat(cnt, d0)
	vd1 := CSplat(cnt, d1)
	vd2 := CSplat(cnt, d2)
	veps := CSplat(cnt, wenoEps)
	c1312 := CSplat(cnt, 13.0/12.0)
	quarter := CSplat(cnt, 0.25)
	sixth := CSplat(cnt, 1.0/6.0)
	two := CSplat(cnt, 2)
	three := CSplat(cnt, 3)
	four := CSplat(cnt, 4)
	five := CSplat(cnt, 5)
	seven := CSplat(cnt, 7)
	eleven := CSplat(cnt, 11)

	t1 := two.NMSub(b, a.Add(c))
	t2 := four.NMSub(b, three.MAdd(c, a))
	b0 := c1312.Mul(t1).MAdd(t1, quarter.Mul(t2).Mul(t2))
	t1 = two.NMSub(c, b.Add(d))
	t2 = b.Sub(d)
	b1 := c1312.Mul(t1).MAdd(t1, quarter.Mul(t2).Mul(t2))
	t1 = two.NMSub(d, c.Add(e))
	t2 = four.NMSub(d, three.MAdd(c, e))
	b2 := c1312.Mul(t1).MAdd(t1, quarter.Mul(t2).Mul(t2))
	e0 := veps.Add(b0)
	e1 := veps.Add(b1)
	e2 := veps.Add(b2)
	w0 := vd0.Div(e0.Mul(e0))
	w1 := vd1.Div(e1.Mul(e1))
	w2 := vd2.Div(e2.Mul(e2))
	inv := w0.Add(w1).Add(w2).Recip()
	q0 := eleven.MAdd(c, seven.NMSub(b, two.Mul(a))).Mul(sixth)
	q1 := five.MAdd(c, two.MAdd(d, b.Neg())).Mul(sixth)
	q2 := two.MAdd(c, five.MSub(d, e)).Mul(sixth)
	acc := w0.Mul(q0)
	acc = w1.MAdd(q1, acc)
	acc = w2.MAdd(q2, acc)
	return acc.Mul(inv)
}

// cFaceState and cFaceFlux mirror the vector HLLE bundles.
type cFaceState struct{ r, un, ut1, ut2, p, g, pi CVec }

type cFaceFlux struct {
	fr, fun, fut1, fut2, fe, fg, fpi, ustar CVec
}

func auditSoundSpeed(s cFaceState) CVec {
	cnt := s.r.C
	one := CSplat(cnt, 1)
	zero := CSplat(cnt, 0)
	num := s.g.Add(one).MAdd(s.p, s.pi)
	c2 := num.Div(s.g.Mul(s.r))
	return c2.Max(zero).Sqrt()
}

// auditHLLE replays hlleFaceV on the counting interpreter.
func auditHLLE(m, p cFaceState) cFaceFlux {
	cnt := m.r.C
	zero := CSplat(cnt, 0)
	half := CSplat(cnt, 0.5)
	cm := auditSoundSpeed(m)
	cp := auditSoundSpeed(p)
	sm := m.un.Sub(cm).Min(p.un.Sub(cp)).Min(zero)
	sp := m.un.Add(cm).Max(p.un.Add(cp)).Max(zero)
	inv := sp.Sub(sm).Recip()
	spsm := sp.Mul(sm)
	keM := m.un.Mul(m.un).Add(m.ut1.Mul(m.ut1)).Add(m.ut2.Mul(m.ut2)).Mul(m.r).Mul(half)
	keP := p.un.Mul(p.un).Add(p.ut1.Mul(p.ut1)).Add(p.ut2.Mul(p.ut2)).Mul(p.r).Mul(half)
	eM := m.g.MAdd(m.p, m.pi.Add(keM))
	eP := p.g.MAdd(p.p, p.pi.Add(keP))
	combine := func(fl, fr, ul, ur CVec) CVec {
		acc := sp.Mul(fl)
		acc = sm.NMSub(fr, acc)
		acc = spsm.MAdd(ur.Sub(ul), acc)
		return acc.Mul(inv)
	}
	rumM := m.r.Mul(m.un)
	rumP := p.r.Mul(p.un)
	var out cFaceFlux
	out.fr = combine(rumM, rumP, m.r, p.r)
	out.fun = combine(rumM.MAdd(m.un, m.p), rumP.MAdd(p.un, p.p), rumM, rumP)
	out.fut1 = combine(rumM.Mul(m.ut1), rumP.Mul(p.ut1), m.r.Mul(m.ut1), p.r.Mul(p.ut1))
	out.fut2 = combine(rumM.Mul(m.ut2), rumP.Mul(p.ut2), m.r.Mul(m.ut2), p.r.Mul(p.ut2))
	out.fe = combine(eM.Add(m.p).Mul(m.un), eP.Add(p.p).Mul(p.un), eM, eP)
	out.fg = combine(m.g.Mul(m.un), p.g.Mul(p.un), m.g, p.g)
	out.fpi = combine(m.pi.Mul(m.un), p.pi.Mul(p.un), m.pi, p.pi)
	out.ustar = sp.Mul(m.un).Sub(sm.Mul(p.un)).Mul(inv)
	return out
}

// auditConv replays the CONV stage for four cells: AoS gather (modeled as
// one load plus three permutes per quantity, the QPX AoS/SoA conversion
// pattern) followed by the EOS arithmetic.
func auditConv(cnt *Counter, cells []float32) [7]CVec {
	gather := func(q int) CVec {
		// 4 lanes from strided AoS positions: one load + 3 permutations.
		v := qpx.New(
			float64(cells[q]), float64(cells[nq+q]),
			float64(cells[2*nq+q]), float64(cells[3*nq+q]),
		)
		cnt.Counts[OpLoad]++
		cnt.Counts[OpPerm] += 3
		return CVec{V: v, C: cnt}
	}
	half := CSplat(cnt, 0.5)
	r := gather(qr)
	inv := r.Recip()
	u := gather(qu).Mul(inv)
	v := gather(qv).Mul(inv)
	w := gather(qw).Mul(inv)
	e := gather(qe)
	g := gather(qg)
	pi := gather(qp)
	ke := u.Mul(u).Add(v.Mul(v)).Add(w.Mul(w)).Mul(r).Mul(half)
	p := e.Sub(ke).Sub(pi).Div(g)
	return [7]CVec{r, u, v, w, p, g, pi}
}

// auditSum replays the SUM stage for four cells of one direction.
func auditSum(cnt *Counter, flux, phi [][]float64) {
	load := func(s []float64, off int) CVec { return CLoad(cnt, s[off:]) }
	du := load(flux[7], 1).Sub(load(flux[7], 0))
	for q := 0; q < 5; q++ {
		d := load(flux[q], 1).Sub(load(flux[q], 0))
		acc := load(phi[2], 0).Sub(d) // acc -= diff
		acc.Store(phi[2])
	}
	for k := 0; k < 2; k++ {
		d := load(flux[5+k], 1).Sub(load(flux[5+k], 0))
		g := load(phi[k], 0)
		acc := load(phi[2], 0).Sub(d.Sub(g.Mul(du)))
		acc.Store(phi[2])
	}
}

// auditBack replays the BACK stage for four values of one quantity.
func auditBack(cnt *Counter, acc []float64, invH float64, out []float64) {
	v := CLoad(cnt, acc).Mul(CSplat(cnt, invH))
	v.Store(out)
}

// StageMix is one row of Table 8.
type StageMix struct {
	Stage        string
	Weight       float64 // fraction of total non-memory instructions
	Density      float64 // FLOP/instruction / 4
	PeakBound    float64 // density / 2
	Instructions int64
}

// InstructionMix executes every RHS stage once per its per-cell invocation
// count for blocks of edge n and reports the Table 8 rows plus the overall
// bound.
func InstructionMix(n int) []StageMix {
	sample := []float64{1.2, 0.9, 1.1, 1.4, 1.0, 1.3, 0.8, 1.05, 0.95}
	mkState := func(c *Counter) cFaceState {
		ld := func(i int) CVec { return CVec{V: qpx.Splat(sample[i]), C: c} }
		return cFaceState{r: ld(0), un: ld(1), ut1: ld(2), ut2: ld(3), p: ld(4), g: ld(5), pi: ld(6)}
	}

	// Per-cell invocation counts (per 4 cells, the vector granularity):
	// every cell has 3 directions x ~1 face, each face needs 14 WENO
	// reconstructions; HLLE once per face; CONV once per cell (x ghost
	// overhead); SUM and BACK once per cell.
	facesPer4Cells := 3.0 * float64(n+1) / float64(n)
	ghost := ghostFactor(n)

	var weno, hlle, conv, sum, back Counter

	// WENO: stencil loads (6 vector loads per quantity pair via shifts in
	// the x-sweep) + arithmetic for minus and plus reconstruction.
	{
		c := &weno
		for q := 0; q < 7; q++ {
			c0 := CLoad(c, sample[0:])
			c1 := c0.Shift(c0, 1)
			c2 := c0.Shift(c0, 2)
			c3 := c0.Shift(c0, 3)
			c4 := CLoad(c, sample[1:])
			c5 := c4.Shift(c4, 1)
			_ = auditWENOMinus(c0, c1, c2, c3, c4)
			_ = auditWENOMinus(c5, c4, c3, c2, c1) // plus side, mirrored
		}
	}
	{
		c := &hlle
		m := mkState(c)
		p := mkState(c)
		_ = auditHLLE(m, p)
	}
	{
		c := &conv
		cells := make([]float32, 4*nq)
		for i := range cells {
			cells[i] = float32(sample[i%len(sample)]) + 1
		}
		_ = auditConv(c, cells)
	}
	{
		c := &sum
		flux := make([][]float64, 8)
		for i := range flux {
			flux[i] = []float64{1, 2, 3, 4, 5}
		}
		phi := [][]float64{{1, 1, 1, 1, 1}, {2, 2, 2, 2, 2}, {0, 0, 0, 0, 0}}
		auditSum(c, flux, phi)
	}
	{
		c := &back
		out := make([]float64, 4)
		auditBack(c, []float64{1, 2, 3, 4}, 0.5, out)
		// BACK also includes the float64->float32 AoS scatter: model as
		// 3 permutations + 1 store per quantity group.
		c.Counts[OpPerm] += 3
	}

	type stage struct {
		name   string
		c      *Counter
		invocs float64 // per 4 cells
	}
	stages := []stage{
		{"CONV", &conv, ghost},
		{"WENO", &weno, facesPer4Cells},
		{"HLLE", &hlle, facesPer4Cells},
		{"SUM", &sum, 3},
		{"BACK", &back, 7},
	}
	var rows []StageMix
	var insF []float64
	var totalIns float64
	var totalFLOP float64
	for _, s := range stages {
		ins := float64(s.c.Instructions()) * s.invocs
		fl := float64(s.c.FLOPs()) * s.invocs
		totalIns += ins
		totalFLOP += fl
		insF = append(insF, ins)
		rows = append(rows, StageMix{
			Stage:        s.name,
			Density:      s.c.Density(),
			PeakBound:    s.c.PeakBound(),
			Instructions: int64(ins),
		})
	}
	for i := range rows {
		rows[i].Weight = insF[i] / totalIns
	}
	all := StageMix{
		Stage:        "ALL",
		Weight:       1,
		Density:      totalFLOP / totalIns / 4,
		Instructions: int64(totalIns),
	}
	all.PeakBound = all.Density / 2
	return append(rows, all)
}
