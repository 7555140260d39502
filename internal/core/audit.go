package core

import (
	_ "embed"
	"strings"
)

// Instruction-mix audit: the analysis behind Table 8. The paper estimates
// the RHS upper bound from the nominal instruction issue rate by reading
// the compiler's QPX assembly of its micro-kernels: permutations,
// comparisons and conditional moves count as FLOPs too, and loads and
// stores are left out of the instruction count.
//
// Here the four-lane kernels are the AVX2 row kernels, written by hand, so
// the audit reads their loop bodies. The files are embedded (go:embed
// ignores build tags), so every build prints the same table. BACK, the one
// stage with no four-lane twin, runs scalar Go: each of its FLOPs
// (flops.go) counts as one scalar instruction.

//go:embed convrow_amd64.s
var convRowAsm string

//go:embed wenorow_amd64.s
var wenoRowAsm string

//go:embed hllerow_amd64.s
var hlleRowAsm string

//go:embed sumrow_amd64.s
var sumRowAsm string

// opClass is the Table 8 category of an instruction.
type opClass int

const (
	opArith opClass = iota // add, sub, mul, min, max
	opDiv                  // divide, square root
	opCmp                  // compare into a lane mask
	opBlend                // mask logic and blends: the Go code's branches
	opPerm                 // inter-lane permutation
	opConv                 // float32 ↔ float64 conversion
	opMem                  // moves, loads, stores, loop control: not counted
	numOpClasses
)

// opClasses classifies every instruction the kernels' loop bodies may use.
var opClasses = map[string]opClass{
	"VADDPD": opArith, "VSUBPD": opArith, "VMULPD": opArith,
	"VMINPD": opArith, "VMAXPD": opArith,
	"VDIVPD": opDiv, "VSQRTPD": opDiv,
	"VCMPPD":    opCmp,
	"VBLENDVPD": opBlend, "VANDPD": opBlend, "VANDNPD": opBlend, "VORPD": opBlend,
	"VBLENDPS": opBlend,
	"VPERMPD":  opPerm, "VPERM2F128": opPerm, "VSHUFPD": opPerm,
	"VCVTPS2PD": opConv, "VCVTPD2PSY": opConv,
	"VMOVUPD": opMem, "VMOVUPS": opMem, "MOVQ": opMem, "ADDQ": opMem, "CMPQ": opMem,
}

// loopOps counts the instructions, by mnemonic, of the loop body of an
// assembly file: the lines from the label loop: to its JLT loop, with the
// function-like #define macros expanded.
func loopOps(src string) map[string]int {
	macros := map[string][]string{}
	ops := map[string]int{}
	var count func(stmt string)
	count = func(stmt string) {
		f := strings.Fields(stmt)
		if len(f) == 0 {
			return
		}
		op, _, _ := strings.Cut(f[0], "(")
		if body, ok := macros[op]; ok {
			for _, s := range body {
				count(s)
			}
			return
		}
		ops[op]++
	}
	lines := strings.Split(src, "\n")
	inLoop := false
	for i := 0; i < len(lines); i++ {
		l := stripComment(lines[i])
		if d, ok := strings.CutPrefix(l, "#define "); ok {
			for strings.HasSuffix(d, `\`) && i+1 < len(lines) {
				i++
				d = strings.TrimSuffix(d, `\`) + stripComment(lines[i])
			}
			if p := strings.IndexAny(d, " ("); p > 0 && d[p] == '(' {
				_, body, _ := strings.Cut(d, ")")
				macros[d[:p]] = strings.Split(body, ";")
			}
			continue
		}
		switch {
		case l == "loop:":
			inLoop = true
		case inLoop && strings.Join(strings.Fields(l), " ") == "JLT loop":
			return ops
		case inLoop:
			for _, s := range strings.Split(l, ";") {
				count(s)
			}
		}
	}
	panic("core: no loop: ... JLT loop body in an embedded kernel")
}

func stripComment(l string) string {
	l, _, _ = strings.Cut(l, "//")
	return strings.TrimSpace(l)
}

// classify sums op counts by class. An instruction without a class panics:
// a kernel that starts using one needs its Table 8 class first.
func classify(ops map[string]int) (c [numOpClasses]int) {
	for op, k := range ops {
		cl, ok := opClasses[op]
		if !ok {
			panic("core: no Table 8 class for instruction " + op)
		}
		c[cl] += k
	}
	return c
}

// vectorInstructions is the number of instructions of a loop body that
// count toward the issue rate: all but moves, loads, stores and loop
// control.
func vectorInstructions(src string) int {
	c := classify(loopOps(src))
	return c[opArith] + c[opDiv] + c[opCmp] + c[opBlend] + c[opPerm] + c[opConv]
}

// StageMix is one row of Table 8.
type StageMix struct {
	Stage        string
	Weight       float64 // fraction of all counted instructions
	Density      float64 // FLOP/instruction / 4; 0 for a stage that runs scalar code
	PeakBound    float64 // Density / 2; 0 for a stage that runs scalar code
	Instructions int64   // per 4 cells
}

// InstructionMix counts the instructions of every RHS stage per 4 cells
// for blocks of edge n and returns the Table 8 rows plus the overall bound.
// Each counted AVX2 instruction is 4 FLOPs (the kernels issue no FMA), each
// scalar one 1 FLOP. The bound assumes one instruction per cycle against a
// fused multiply-add peak, as the paper does: Density / 2.
func InstructionMix(n int) []StageMix {
	// Per 4 cells: ghostFactor(n) groups of 4 converted cells; 3(n+1)/n
	// groups of 4 faces, each with 14 WENO reconstructions (7 quantities,
	// minus and plus) and one HLLE flux; one SUM group per direction.
	faceGroups := 3 * float64(n+1) / float64(n)
	stages := []struct {
		name  string
		lanes int
		ins   float64
	}{
		{"CONV", 4, ghostFactor(n) * float64(vectorInstructions(convRowAsm))},
		{"WENO", 4, faceGroups * 2 * nq * float64(vectorInstructions(wenoRowAsm))},
		{"HLLE", 4, faceGroups * float64(vectorInstructions(hlleRowAsm))},
		{"SUM", 4, 3 * float64(vectorInstructions(sumRowAsm))},
		{"BACK", 1, 4 * BackFlopsPerCell},
	}
	var total, flops float64
	for _, s := range stages {
		total += s.ins
		flops += float64(s.lanes) * s.ins
	}
	var rows []StageMix
	for _, s := range stages {
		r := StageMix{Stage: s.name, Weight: s.ins / total, Instructions: int64(s.ins)}
		if s.lanes > 1 {
			r.Density = float64(s.lanes) / 4
			r.PeakBound = r.Density / 2
		}
		rows = append(rows, r)
	}
	all := StageMix{Stage: "ALL", Weight: 1, Density: flops / total / 4, Instructions: int64(total)}
	all.PeakBound = all.Density / 2
	return append(rows, all)
}
