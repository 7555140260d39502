package core

import (
	_ "embed"
	"maps"
	"math"
	"testing"

	"cubism/internal/physics"
)

// The UP row kernel is no RHS stage, so Table 8 does not count it; its pin
// below reads it as the table's kernels are read.
//
//go:embed update_amd64.s
var updateRowAsm string

// TestAuditWENOMatchesKernel: Table 8's WENO row counts the loop body of
// wenoRowAVX2 as written: 65 arithmetic instructions and 4 divides, no
// FMA, compare, blend or permute. The pin is per instruction, so an edit to
// the kernel shows up here and in Table 8 together.
func TestAuditWENOMatchesKernel(t *testing.T) {
	ops := loopOps(wenoRowAsm)
	want := map[string]int{
		"VADDPD": 24, "VSUBPD": 9, "VMULPD": 32, "VDIVPD": 4,
		"VMOVUPD": 10, "ADDQ": 1, "CMPQ": 1,
	}
	if !maps.Equal(ops, want) {
		t.Errorf("wenorow_amd64.s loop body %v, want %v", ops, want)
	}
	if got, want := classify(ops), [numOpClasses]int{opArith: 65, opDiv: 4, opMem: 12}; got != want {
		t.Errorf("WENO classes %v, want %v", got, want)
	}
}

// TestAuditHLLEMatchesKernel: Table 8's HLLE row counts the loop body of
// hlleRowAVX2 with its PHYS, SELECT, SIDE, SOUND and COMBINE macros
// expanded.
func TestAuditHLLEMatchesKernel(t *testing.T) {
	ops := loopOps(hlleRowAsm)
	want := map[string]int{
		"VADDPD": 29, "VSUBPD": 19, "VMULPD": 68, "VMINPD": 2, "VMAXPD": 2,
		"VDIVPD": 3, "VSQRTPD": 2, "VCMPPD": 12,
		"VBLENDVPD": 16, "VANDPD": 5, "VANDNPD": 4, "VORPD": 2,
		"VMOVUPD": 61, "MOVQ": 44, "ADDQ": 1, "CMPQ": 1,
	}
	if !maps.Equal(ops, want) {
		t.Errorf("hllerow_amd64.s loop body %v, want %v", ops, want)
	}
	if got, want := classify(ops), [numOpClasses]int{opArith: 120, opDiv: 5, opCmp: 12, opBlend: 27, opMem: 107}; got != want {
		t.Errorf("HLLE classes %v, want %v", got, want)
	}
}

// TestAuditSUMMatchesKernel: Table 8's SUM row counts the loop body of
// sumRowAVX2 with its DIFF, NONCONS and SUB macros expanded: per 4 cells and
// direction, the face-velocity difference, seven flux differences, seven
// accumulator updates and the two non-conservative terms.
func TestAuditSUMMatchesKernel(t *testing.T) {
	ops := loopOps(sumRowAsm)
	want := map[string]int{
		"VSUBPD": 17, "VMULPD": 2,
		"VMOVUPD": 23, "MOVQ": 16, "ADDQ": 1, "CMPQ": 1,
	}
	if !maps.Equal(ops, want) {
		t.Errorf("sumrow_amd64.s loop body %v, want %v", ops, want)
	}
	if got, want := classify(ops), [numOpClasses]int{opArith: 19, opMem: 41}; got != want {
		t.Errorf("SUM classes %v, want %v", got, want)
	}
}

// TestAuditCONVMatchesKernel: Table 8's CONV row counts the loop body of
// convRowAVX2 with its GATHER macro expanded: three blends from memory and
// one widening per quantity, then the equation of state, whose 14
// arithmetic instructions are ConvFlopsPerCell one for one.
func TestAuditCONVMatchesKernel(t *testing.T) {
	ops := loopOps(convRowAsm)
	want := map[string]int{
		"VADDPD": 2, "VSUBPD": 2, "VMULPD": 8, "VDIVPD": 2,
		"VBLENDPS": 21, "VCVTPS2PD": 7,
		"VMOVUPS": 7, "VMOVUPD": 7, "ADDQ": 2, "CMPQ": 1,
	}
	if !maps.Equal(ops, want) {
		t.Errorf("convrow_amd64.s loop body %v, want %v", ops, want)
	}
	c := classify(ops)
	if want := [numOpClasses]int{opArith: 12, opDiv: 2, opBlend: 21, opConv: 7, opMem: 17}; c != want {
		t.Errorf("CONV classes %v, want %v", c, want)
	}
	if got := c[opArith] + c[opDiv]; got != ConvFlopsPerCell {
		t.Errorf("CONV loop body: %d arithmetic instructions, ConvFlopsPerCell = %d", got, ConvFlopsPerCell)
	}
}

// TestAuditUPMatchesKernel: the loop body of updateRowAVX2 is the UP
// arithmetic, UpdateFlopsPerValue instructions per 4 values, between three
// widenings and two narrowings.
func TestAuditUPMatchesKernel(t *testing.T) {
	ops := loopOps(updateRowAsm)
	want := map[string]int{
		"VMULPD": 3, "VADDPD": 2, "VCVTPS2PD": 3, "VCVTPD2PSY": 2,
		"VMOVUPS": 2, "ADDQ": 1, "CMPQ": 1,
	}
	if !maps.Equal(ops, want) {
		t.Errorf("update_amd64.s loop body %v, want %v", ops, want)
	}
	c := classify(ops)
	if want := [numOpClasses]int{opArith: 5, opConv: 5, opMem: 4}; c != want {
		t.Errorf("UP classes %v, want %v", c, want)
	}
	if got := c[opArith]; got != UpdateFlopsPerValue {
		t.Errorf("UP loop body: %d arithmetic instructions, UpdateFlopsPerValue = %d", got, UpdateFlopsPerValue)
	}
}

// TestInstructionMixShape: the counted mix has the structure of Table 8.
// WENO dominates the instruction stream; the AVX2 stages have density 1
// (no FMA) and the scalar stage (BACK) none; the weights sum to 1; and the
// overall density lies between scalar (0.25) and pure vector (1).
func TestInstructionMixShape(t *testing.T) {
	rows := InstructionMix(16)
	byName := map[string]StageMix{}
	for _, r := range rows {
		byName[r.Stage] = r
	}
	if len(rows) != 6 || len(byName) != 6 {
		t.Fatalf("stages %+v, want CONV, WENO, HLLE, SUM, BACK, ALL", rows)
	}
	if w := byName["WENO"].Weight; w < 0.5 {
		t.Errorf("WENO weight %.2f, want > 0.5 (paper: 0.83)", w)
	}
	for _, name := range []string{"CONV", "WENO", "HLLE", "SUM"} {
		if r := byName[name]; r.Density != 1 || r.PeakBound != 0.5 {
			t.Errorf("%s density %g bound %g, want 1 and 0.5 (AVX2, no FMA)", name, r.Density, r.PeakBound)
		}
	}
	sum := 0.0
	for _, name := range []string{"CONV", "WENO", "HLLE", "SUM", "BACK"} {
		r, ok := byName[name]
		if !ok {
			t.Fatalf("missing stage %s", name)
		}
		if r.Instructions <= 0 {
			t.Errorf("%s: %d instructions", name, r.Instructions)
		}
		sum += r.Weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("stage weights sum to %g", sum)
	}
	for _, name := range []string{"BACK"} {
		if r := byName[name]; r.Density != 0 || r.PeakBound != 0 {
			t.Errorf("%s density %g bound %g, want 0 (scalar code)", name, r.Density, r.PeakBound)
		}
	}
	all := byName["ALL"]
	if all.Density <= 0.25 || all.Density >= 1 || all.PeakBound != all.Density/2 {
		t.Errorf("overall density %g bound %g, want in (0.25, 1) and density/2", all.Density, all.PeakBound)
	}
}

// TestFlopCountsConsistent: the analytic per-cell FLOP counts used by the
// perf accounting agree with the assembly the kernels run. WENO's
// arithmetic instructions are wenoMinus's FLOPs one for one; HLLE's
// counted instructions include the compares and blends of the branches
// (the paper's convention counts those too), so they agree with the
// analytic count within the same bounds as before.
func TestFlopCountsConsistent(t *testing.T) {
	w := classify(loopOps(wenoRowAsm))
	if got := w[opArith] + w[opDiv]; got != WENOFlops {
		t.Errorf("WENO loop body: %d arithmetic instructions, WENOFlops = %d", got, WENOFlops)
	}
	ratio := float64(vectorInstructions(hlleRowAsm)) / HLLEFlops
	if ratio < 0.7 || ratio > 1.6 {
		t.Errorf("HLLE counted/analytic ratio %.2f outside [0.7, 1.6] (counted %d, analytic %d)",
			ratio, vectorInstructions(hlleRowAsm), HLLEFlops)
	}
	// SUM: 19 per direction against SumFlopsPerCell's 18, which leaves out
	// the face-velocity difference.
	if got := 3 * vectorInstructions(sumRowAsm); got != SumFlopsPerCell+3 {
		t.Errorf("SUM loop bodies: %d instructions per cell, SumFlopsPerCell+3 = %d", got, SumFlopsPerCell+3)
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
