package core

import (
	"math"
	"testing"

	"cubism/internal/physics"
	"cubism/internal/qpx"
)

// TestAuditWENOMatchesKernel: the counting interpreter must execute exactly
// the arithmetic of the production vector kernel.
func TestAuditWENOMatchesKernel(t *testing.T) {
	var cnt Counter
	vals := [6]float64{1.2, 0.9, 1.1, 1.4, 1.0, 1.3}
	mk := func(i int) CVec { return CVec{V: qpx.Splat(vals[i]), C: &cnt} }
	got := auditWENOMinus(mk(0), mk(1), mk(2), mk(3), mk(4))
	want := wenoMinusV(qpx.Splat(vals[0]), qpx.Splat(vals[1]), qpx.Splat(vals[2]), qpx.Splat(vals[3]), qpx.Splat(vals[4]))
	for l := 0; l < qpx.Width; l++ {
		if math.Abs(got.V.Lane(l)-want.Lane(l)) > 1e-14 {
			t.Errorf("lane %d: audit %g vs kernel %g", l, got.V.Lane(l), want.Lane(l))
		}
	}
	if cnt.Counts[OpFMA] == 0 || cnt.Counts[OpArith] == 0 || cnt.Counts[OpDiv] == 0 {
		t.Errorf("implausible WENO mix: %+v", cnt.Counts)
	}
}

func TestAuditHLLEMatchesKernel(t *testing.T) {
	var cnt Counter
	vals := [7]float64{1.2, 0.9, 1.1, 1.4, 1.0, 1.3, 0.8}
	mkC := func() cFaceState {
		ld := func(i int) CVec { return CVec{V: qpx.Splat(vals[i]), C: &cnt} }
		return cFaceState{r: ld(0), un: ld(1), ut1: ld(2), ut2: ld(3), p: ld(4), g: ld(5), pi: ld(6)}
	}
	mkV := func() faceStateV {
		ld := func(i int) qpx.Vec4 { return qpx.Splat(vals[i]) }
		return faceStateV{r: ld(0), un: ld(1), ut1: ld(2), ut2: ld(3), p: ld(4), g: ld(5), pi: ld(6)}
	}
	got := auditHLLE(mkC(), mkC())
	want := hlleFaceV(mkV(), mkV())
	pairs := []struct {
		a CVec
		b qpx.Vec4
	}{
		{got.fr, want.fr}, {got.fun, want.fun}, {got.fut1, want.fut1},
		{got.fut2, want.fut2}, {got.fe, want.fe}, {got.fg, want.fg},
		{got.fpi, want.fpi}, {got.ustar, want.ustar},
	}
	for i, p := range pairs {
		if math.Abs(p.a.V.A-p.b.A) > 1e-12*(1+math.Abs(p.b.A)) {
			t.Errorf("flux %d: audit %g vs kernel %g", i, p.a.V.A, p.b.A)
		}
	}
}

// TestInstructionMixShape: the audited mix must reproduce the structure of
// Table 8 — WENO dominates the instruction stream, every stage has density
// above 1 (some FMA) and at most 2, and the overall issue-rate bound falls
// between 50% and 100% of peak.
func TestInstructionMixShape(t *testing.T) {
	rows := InstructionMix(16)
	byName := map[string]StageMix{}
	for _, r := range rows {
		byName[r.Stage] = r
	}
	weno := byName["WENO"]
	if weno.Weight < 0.5 {
		t.Errorf("WENO weight %.2f, want > 0.5 (paper: 0.83)", weno.Weight)
	}
	for _, name := range []string{"CONV", "WENO", "HLLE", "SUM", "BACK", "ALL"} {
		r, ok := byName[name]
		if !ok {
			t.Fatalf("missing stage %s", name)
		}
		if r.Density <= 0.4 || r.Density > 2 {
			t.Errorf("%s density %.2f outside (0.4, 2]", name, r.Density)
		}
		if r.PeakBound <= 0 || r.PeakBound > 1 {
			t.Errorf("%s peak bound %.2f outside (0, 1]", name, r.PeakBound)
		}
	}
	all := byName["ALL"]
	if all.PeakBound < 0.4 || all.PeakBound > 1 {
		t.Errorf("overall bound %.2f implausible (paper: 0.76)", all.PeakBound)
	}
	// Weights sum to ~1 over the real stages.
	sum := 0.0
	for _, name := range []string{"CONV", "WENO", "HLLE", "SUM", "BACK"} {
		sum += byName[name].Weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("stage weights sum to %g", sum)
	}
}

// TestFlopCountsConsistent: the analytic per-cell FLOP counts used by the
// perf accounting must agree with the audited kernel arithmetic to within
// the accounting conventions (audit counts permutes/selects as FLOPs, the
// analytic count does not; they must agree within 2x and the analytic
// count must not exceed the audit).
func TestFlopCountsConsistent(t *testing.T) {
	// WENO: analytic count (69 scalar FLOPs = 69 "vector FLOPs/4 lanes").
	var cnt Counter
	mk := func(x float64) CVec { return CVec{V: qpx.Splat(x), C: &cnt} }
	_ = auditWENOMinus(mk(1.2), mk(0.9), mk(1.1), mk(1.4), mk(1.0))
	auditFlopsPerLane := float64(cnt.FLOPs()) / 4
	ratio := auditFlopsPerLane / WENOFlops
	if ratio < 0.8 || ratio > 1.6 {
		t.Errorf("WENO audit/analytic FLOP ratio %.2f outside [0.8, 1.6] (audit %g, analytic %d)",
			ratio, auditFlopsPerLane, WENOFlops)
	}

	var hc Counter
	mkS := func() cFaceState {
		ld := func(x float64) CVec { return CVec{V: qpx.Splat(x), C: &hc} }
		return cFaceState{r: ld(1.2), un: ld(0.9), ut1: ld(1.1), ut2: ld(1.4), p: ld(1.0), g: ld(1.3), pi: ld(0.8)}
	}
	_ = auditHLLE(mkS(), mkS())
	hllePerLane := float64(hc.FLOPs()) / 4
	ratio = hllePerLane / HLLEFlops
	if ratio < 0.7 || ratio > 1.6 {
		t.Errorf("HLLE audit/analytic FLOP ratio %.2f outside [0.7, 1.6] (audit %g, analytic %d)",
			ratio, hllePerLane, HLLEFlops)
	}
}

// TestStageTrafficConstants pins the analytic per-stage traffic of the two
// execution models. These bytes are the denominators of the fused and staged
// roofline placements, so a change here is a change in what the solver is
// charged for, not in how fast the host runs it.
func TestStageTrafficConstants(t *testing.T) {
	if UpdateBytesPerValue != 20 || FusedUpdateBytesPerValue != 16 {
		t.Errorf("UP bytes/value: staged %d fused %d, want 20 and 16",
			UpdateBytesPerValue, FusedUpdateBytesPerValue)
	}
	staged := func(n int) int64 { return RHSBytesPerCell(n) + physics.NQ*UpdateBytesPerValue }
	if got := staged(8); got != 259 {
		t.Errorf("staged stage bytes/cell at n=8: %d, want 259", got)
	}
	if got := FusedStageBytesPerCell(8); got != 203 {
		t.Errorf("fused stage bytes/cell at n=8: %d, want 203", got)
	}
	// Fusion drops the rhs write-back and its re-read: two float32 per value.
	for _, n := range []int{8, 16, 32} {
		if d := staged(n) - FusedStageBytesPerCell(n); d != 2*physics.NQ*4 {
			t.Errorf("n=%d: staged - fused = %d bytes/cell, want %d", n, d, 2*physics.NQ*4)
		}
	}
}

// TestOperationalIntensityTable3Shape verifies the Table 3 shape: the
// reordered RHS intensity is an order of magnitude above naive, DT gains a
// smaller factor, UP gains nothing.
func TestOperationalIntensityTable3Shape(t *testing.T) {
	n := 32
	rhsNaive := OperationalIntensityRHSNaive(n)
	rhsReord := OperationalIntensityRHS(n)
	if factor := rhsReord / rhsNaive; factor < 8 {
		t.Errorf("RHS reordering factor %.1f, want >= 8 (paper: 15X)", factor)
	}
	if rhsReord < 10 {
		t.Errorf("reordered RHS OI %.1f below the compute-bound threshold 10", rhsReord)
	}
	dtNaive := OperationalIntensityDTNaive()
	dtReord := OperationalIntensityDT()
	if factor := dtReord / dtNaive; factor < 2 || factor > 8 {
		t.Errorf("DT reordering factor %.1f, want in [2, 8] (paper: 3.9X)", factor)
	}
	up := OperationalIntensityUP()
	if up > 0.5 {
		t.Errorf("UP OI %.2f, want memory-bound ~0.2", up)
	}
}
