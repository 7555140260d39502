package core

// UP kernel: advances the flow quantities with the low-storage third-order
// TVD Runge-Kutta scheme of Williamson (paper ref. [80], §5 "low-storage
// time stepping schemes, to reduce the overall memory footprint").
//
// The 2N-storage formulation keeps one extra register field R per cell:
//
//	R ← A_s R + Δt · rhs(u)
//	u ← u + B_s R
//
// executed for the three stages s. Only two full copies of the state are
// resident (u and R), matching the paper's memory-footprint constraint.

// RK3 stage coefficients (Williamson 1980).
var (
	RK3A = [3]float64{0, -5.0 / 9.0, -153.0 / 128.0}
	RK3B = [3]float64{1.0 / 3.0, 15.0 / 16.0, 8.0 / 15.0}
)

// UpdateScalar performs one UP stage over a block: u and reg are the block
// state and Runge-Kutta register (AoS float32), rhs the freshly evaluated
// right-hand side. a, b are the stage coefficients and dt the time step.
// It runs the UP row kernel, on AVX2 where the CPU has it (hasAVX2).
//
// The kernel is a pure streaming operation with an operational intensity of
// about 0.2 FLOP/B — memory-bound on every platform considered, which is
// why the paper's vectorized UP shows no improvement (Table 7).
func UpdateScalar(u, reg, rhs []float32, a, b, dt float64) {
	updateRow(u, reg, rhs, a, b, dt, hasAVX2)
}

// updateRow is the UP row kernel: for every i < len(u),
//
//	r := a·reg[i] + dt·rhs[i]; reg[i] = float32(r); u[i] = float32(u[i] + b·r)
//
// in float64. reg and rhs must hold len(u) values; a shorter one panics
// before anything is written. With avx2 set (see RHS.avx2), whole groups of
// four lanes run in the assembly twin (update_amd64.s), bitwise equal to
// the Go loop that covers the rest.
func updateRow(u, reg, rhs []float32, a, b, dt float64, avx2 bool) {
	n := len(u)
	if len(reg) < n || len(rhs) < n {
		panic("core: update operand shorter than the state")
	}
	k := 0
	if avx2 && n >= 4 {
		k = n &^ 3
		updateRowAVX2(&u[0], &reg[0], &rhs[0], k, a, b, dt)
	}
	reg, rhs = reg[:n], rhs[:n]
	for i := k; i < n; i++ {
		r := a*float64(reg[i]) + dt*float64(rhs[i])
		reg[i] = float32(r)
		u[i] = float32(float64(u[i]) + b*r)
	}
}

// UpdateFlopsPerValue is the floating point work of one UP element
// (2 multiplies + 1 add for the register, 1 multiply + 1 add for the state).
const UpdateFlopsPerValue = 5

// UpdateBytesPerValue is the compulsory traffic of one UP element: read
// u, reg, rhs and write u, reg as float32.
const UpdateBytesPerValue = 5 * 4

// UpdateSSP performs one stage of the classic three-register SSP-RK3
// scheme (Shu & Osher), the ablation counterpart of the low-storage
// formulation: it needs a full copy u0 of the step's initial state, i.e.
// three resident fields instead of two.
//
//	stage 0: u ← u0 + Δt·L(u0)
//	stage 1: u ← 3/4·u0 + 1/4·u + 1/4·Δt·L(u)
//	stage 2: u ← 1/3·u0 + 2/3·u + 2/3·Δt·L(u)
func UpdateSSP(u, u0, rhs []float32, stage int, dt float64) {
	switch stage {
	case 0:
		for i := range u {
			u[i] = float32(float64(u0[i]) + dt*float64(rhs[i]))
		}
	case 1:
		for i := range u {
			u[i] = float32(0.75*float64(u0[i]) + 0.25*(float64(u[i])+dt*float64(rhs[i])))
		}
	default:
		const third = 1.0 / 3.0
		for i := range u {
			u[i] = float32(third*float64(u0[i]) + 2*third*(float64(u[i])+dt*float64(rhs[i])))
		}
	}
}
