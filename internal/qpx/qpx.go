// Package qpx models the IBM Blue Gene/Q QPX vector instruction set as a
// 4-lane double-precision value type.
//
// The paper's core kernels (RHS, DT, UP, FWT) are explicitly vectorized with
// QPX intrinsics: 4-wide fused multiply-adds, inter-lane permutations and
// sign-based conditional selects. Go exposes no vector intrinsics, so this
// package substitutes a portable model: Vec4 is a four-field struct whose
// method set mirrors the QPX operations used by CUBISM-MPCF. Kernels written
// against Vec4 keep the *structure* of the vector code — AoS/SoA conversion,
// lane shuffles for stencil shifts, branch-free selects. The paper's tables
// are measured and counted on the AVX2 row kernels of internal/core
// instead; this model stays only until its last callers are gone.
//
// Vec4 is a struct rather than a [4]float64 array because the Go compiler
// SSA-decomposes small structs into registers but spills arrays to the
// stack; with the struct layout the whole arithmetic of a kernel stays in
// registers, exactly like a vector register file. The four lanes still
// execute serially on the host CPU; absolute throughput is therefore that
// of scalar hardware.
package qpx

import "math"

// Width is the SIMD width of the modeled QPX unit (4 doubles).
const Width = 4

// Vec4 is one QPX register: four double-precision lanes.
type Vec4 struct {
	A, B, C, D float64
}

// New builds a vector from four lane values.
func New(a, b, c, d float64) Vec4 { return Vec4{a, b, c, d} }

// Splat returns a vector with all four lanes set to x (QPX vec_splats).
func Splat(x float64) Vec4 { return Vec4{x, x, x, x} }

// Zero returns the all-zero vector.
func Zero() Vec4 { return Vec4{} }

// Lane returns lane i (0..3).
func (a Vec4) Lane(i int) float64 {
	switch i {
	case 0:
		return a.A
	case 1:
		return a.B
	case 2:
		return a.C
	default:
		return a.D
	}
}

// Load4 gathers four consecutive float64 values (QPX vec_ld).
// The slice must have at least 4 elements.
func Load4(s []float64) Vec4 {
	_ = s[3]
	return Vec4{s[0], s[1], s[2], s[3]}
}

// Load4f gathers four consecutive float32 values, widening to double.
// This models the QPX single-precision load with conversion (vec_lds),
// matching the paper's mixed-precision scheme: float32 memory
// representation, float64 computation.
func Load4f(s []float32) Vec4 {
	_ = s[3]
	return Vec4{float64(s[0]), float64(s[1]), float64(s[2]), float64(s[3])}
}

// Store4 writes the four lanes to consecutive float64 slots (QPX vec_st).
func (a Vec4) Store4(s []float64) { s[0], s[1], s[2], s[3] = a.A, a.B, a.C, a.D }

// Store4f narrows the four lanes to float32 and stores them (vec_sts).
func (a Vec4) Store4f(s []float32) {
	s[0], s[1], s[2], s[3] = float32(a.A), float32(a.B), float32(a.C), float32(a.D)
}

// Add returns a+b lane-wise.
func (a Vec4) Add(b Vec4) Vec4 {
	return Vec4{a.A + b.A, a.B + b.B, a.C + b.C, a.D + b.D}
}

// Sub returns a-b lane-wise.
func (a Vec4) Sub(b Vec4) Vec4 {
	return Vec4{a.A - b.A, a.B - b.B, a.C - b.C, a.D - b.D}
}

// Mul returns a*b lane-wise.
func (a Vec4) Mul(b Vec4) Vec4 {
	return Vec4{a.A * b.A, a.B * b.B, a.C * b.C, a.D * b.D}
}

// Div returns a/b lane-wise. QPX has no divide; the real kernels use
// reciprocal estimates plus Newton refinement, which we fold into one op.
func (a Vec4) Div(b Vec4) Vec4 {
	return Vec4{a.A / b.A, a.B / b.B, a.C / b.C, a.D / b.D}
}

// MAdd returns a*b+c lane-wise (QPX vec_madd, a fused multiply-add). The
// lanes use plain multiply-add rather than math.FMA: the correctly rounded
// FMA intrinsic carries a per-call CPU-feature branch and, on hardware
// without FMA units, a very slow soft-float path, while the model only
// needs the arithmetic shape.
func (a Vec4) MAdd(b, c Vec4) Vec4 {
	return Vec4{a.A*b.A + c.A, a.B*b.B + c.B, a.C*b.C + c.C, a.D*b.D + c.D}
}

// MSub returns a*b-c lane-wise (QPX vec_msub).
func (a Vec4) MSub(b, c Vec4) Vec4 {
	return Vec4{a.A*b.A - c.A, a.B*b.B - c.B, a.C*b.C - c.C, a.D*b.D - c.D}
}

// NMSub returns c-a*b lane-wise (QPX vec_nmsub).
func (a Vec4) NMSub(b, c Vec4) Vec4 {
	return Vec4{c.A - a.A*b.A, c.B - a.B*b.B, c.C - a.C*b.C, c.D - a.D*b.D}
}

// Neg returns -a lane-wise (QPX vec_neg).
func (a Vec4) Neg() Vec4 { return Vec4{-a.A, -a.B, -a.C, -a.D} }

// Abs returns |a| lane-wise (QPX vec_abs; the paper notes this intrinsic has
// no SSE counterpart and needed special handling in the portability macros).
func (a Vec4) Abs() Vec4 {
	return Vec4{math.Abs(a.A), math.Abs(a.B), math.Abs(a.C), math.Abs(a.D)}
}

// Max returns the lane-wise maximum.
func (a Vec4) Max(b Vec4) Vec4 {
	return Vec4{math.Max(a.A, b.A), math.Max(a.B, b.B), math.Max(a.C, b.C), math.Max(a.D, b.D)}
}

// Min returns the lane-wise minimum.
func (a Vec4) Min(b Vec4) Vec4 {
	return Vec4{math.Min(a.A, b.A), math.Min(a.B, b.B), math.Min(a.C, b.C), math.Min(a.D, b.D)}
}

// Sqrt returns the lane-wise square root (QPX vec_swsqrt, software-assisted).
func (a Vec4) Sqrt() Vec4 {
	return Vec4{math.Sqrt(a.A), math.Sqrt(a.B), math.Sqrt(a.C), math.Sqrt(a.D)}
}

// Recip returns the lane-wise reciprocal (vec_re + Newton step).
func (a Vec4) Recip() Vec4 {
	return Vec4{1 / a.A, 1 / a.B, 1 / a.C, 1 / a.D}
}

// Sel returns, lane-wise, b if the mask lane >= 0 else a. This models QPX
// vec_sel/fpsel, which selects on the sign bit and is how the vector WENO
// and HLLE stages eliminate data-dependent branches. NaN mask lanes select
// a (the fallback operand).
func Sel(mask, a, b Vec4) Vec4 {
	var r Vec4
	if mask.A >= 0 {
		r.A = b.A
	} else {
		r.A = a.A
	}
	if mask.B >= 0 {
		r.B = b.B
	} else {
		r.B = a.B
	}
	if mask.C >= 0 {
		r.C = b.C
	} else {
		r.C = a.C
	}
	if mask.D >= 0 {
		r.D = b.D
	} else {
		r.D = a.D
	}
	return r
}

// CmpGE returns +1 in lanes where a>=b, -1 elsewhere (QPX vec_cmpge mask).
func (a Vec4) CmpGE(b Vec4) Vec4 {
	r := Vec4{-1, -1, -1, -1}
	if a.A >= b.A {
		r.A = 1
	}
	if a.B >= b.B {
		r.B = 1
	}
	if a.C >= b.C {
		r.C = 1
	}
	if a.D >= b.D {
		r.D = 1
	}
	return r
}

// CmpLT returns +1 in lanes where a<b, -1 elsewhere.
func (a Vec4) CmpLT(b Vec4) Vec4 {
	r := Vec4{-1, -1, -1, -1}
	if a.A < b.A {
		r.A = 1
	}
	if a.B < b.B {
		r.B = 1
	}
	if a.C < b.C {
		r.C = 1
	}
	if a.D < b.D {
		r.D = 1
	}
	return r
}

// Perm returns a general inter-lane permutation of the 8-lane concatenation
// (a,b): result lane i is pick(a,b)[sel[i]], sel in [0,8). This is the QPX
// vec_perm used for stencil shifts; the paper notes it is significantly more
// flexible than SSE shuffles.
func Perm(a, b Vec4, sel [4]int) Vec4 {
	pick := func(s int) float64 {
		if s < Width {
			return a.Lane(s)
		}
		return b.Lane(s - Width)
	}
	return Vec4{pick(sel[0]), pick(sel[1]), pick(sel[2]), pick(sel[3])}
}

// ShiftL1 returns (a1,a2,a3,b0): the window over (a,b) advanced by one lane.
// This is the workhorse permutation of the vector WENO stage, producing the
// shifted stencil operands from two consecutive registers.
func ShiftL1(a, b Vec4) Vec4 { return Vec4{a.B, a.C, a.D, b.A} }

// ShiftL2 returns (a2,a3,b0,b1).
func ShiftL2(a, b Vec4) Vec4 { return Vec4{a.C, a.D, b.A, b.B} }

// ShiftL3 returns (a3,b0,b1,b2).
func ShiftL3(a, b Vec4) Vec4 { return Vec4{a.D, b.A, b.B, b.C} }

// HMax returns the horizontal maximum of the four lanes. Horizontal
// reductions are done with two inter-lane permutes plus max ops on QPX.
func (a Vec4) HMax() float64 {
	m := a.A
	if a.B > m {
		m = a.B
	}
	if a.C > m {
		m = a.C
	}
	if a.D > m {
		m = a.D
	}
	return m
}

// HSum returns the horizontal sum of the four lanes.
func (a Vec4) HSum() float64 { return (a.A + a.B) + (a.C + a.D) }

// Transpose4 transposes a 4x4 tile held in four registers in place. The FWT
// kernel uses this for the 4-stream vectorization of the wavelet filters
// (the paper's "additional 4 x 4 transpositions").
func Transpose4(r0, r1, r2, r3 *Vec4) {
	a, b, c, d := *r0, *r1, *r2, *r3
	*r0 = Vec4{a.A, b.A, c.A, d.A}
	*r1 = Vec4{a.B, b.B, c.B, d.B}
	*r2 = Vec4{a.C, b.C, c.C, d.C}
	*r3 = Vec4{a.D, b.D, c.D, d.D}
}
