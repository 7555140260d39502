// Package physics defines the governing-equation layer of the solver: the
// stiffened equation of state coupling the two phases, conversions between
// conserved and primitive variables, characteristic speeds, and material
// presets matching the paper's simulation setup (§7).
//
// The solver evolves the compressible Euler equations for density, momentum
// and total energy (paper eq. 1) together with two advected material
// functions (eq. 2):
//
//	Γ = 1/(γ-1),  Π = γ p_c/(γ-1)
//
// coupled through the stiffened equation of state Γp + Π = E - ρ|u|²/2.
// Reconstructing Γ and Π (rather than γ, p_c) preserves the zero jump
// conditions of pressure and velocity across contact discontinuities
// (Johnsen & Ham 2012, paper ref. [45]).
package physics

import "math"

// NQ is the number of flow quantities carried per cell:
// ρ, ρu, ρv, ρw, E, Γ, Π.
const NQ = 7

// Indices of the quantities inside a cell.
const (
	QR = 0 // density ρ
	QU = 1 // x-momentum ρu
	QV = 2 // y-momentum ρv
	QW = 3 // z-momentum ρw
	QE = 4 // total energy E
	QG = 5 // Γ = 1/(γ-1)
	QP = 6 // Π = γ p_c/(γ-1)
)

// Material describes one pure phase by its specific heat ratio and
// correction pressure.
type Material struct {
	Gamma float64 // specific heat ratio γ
	Pc    float64 // correction pressure p_c [Pa]
}

// G returns Γ = 1/(γ-1) for the material.
func (m Material) G() float64 { return 1 / (m.Gamma - 1) }

// P returns Π = γ p_c/(γ-1) for the material.
func (m Material) P() float64 { return m.Gamma * m.Pc / (m.Gamma - 1) }

// Paper §7 material properties: γ and p_c are 1.4 and 1 bar for pure vapor,
// 6.59 and 4096 bar for pure liquid; initial states 1 kg/m³ / 0.0234 bar for
// vapor and 1000 kg/m³ / 100 bar for the pressurized liquid.
const Bar = 1e5 // Pa

// Vapor is the pure vapor phase of the paper's cloud simulations.
var Vapor = Material{Gamma: 1.4, Pc: 1 * Bar}

// Liquid is the pressurized-liquid phase of the paper's cloud simulations.
var Liquid = Material{Gamma: 6.59, Pc: 4096 * Bar}

// InitialState holds the initial primitive state of one phase.
type InitialState struct {
	Rho float64 // density [kg/m³]
	U   float64 // velocity [m/s]
	P   float64 // pressure [Pa]
}

// VaporInit and LiquidInit are the paper's initial conditions.
var (
	VaporInit  = InitialState{Rho: 1, U: 0, P: 0.0234 * Bar}
	LiquidInit = InitialState{Rho: 1000, U: 0, P: 100 * Bar}
)

// Prim is a primitive-variable state.
type Prim struct {
	Rho     float64 // density
	U, V, W float64 // velocity components
	P       float64 // pressure
	G       float64 // Γ
	Pi      float64 // Π
}

// Cons is a conserved-variable state.
type Cons struct {
	R          float64 // ρ
	RU, RV, RW float64 // momenta
	E          float64 // total energy
	G          float64 // Γ (advected)
	Pi         float64 // Π (advected)
}

// ToCons converts primitives to conserved variables.
func (p Prim) ToCons() Cons {
	ke := 0.5 * p.Rho * (p.U*p.U + p.V*p.V + p.W*p.W)
	return Cons{
		R:  p.Rho,
		RU: p.Rho * p.U,
		RV: p.Rho * p.V,
		RW: p.Rho * p.W,
		E:  p.G*p.P + p.Pi + ke,
		G:  p.G,
		Pi: p.Pi,
	}
}

// ToPrim converts conserved variables to primitives.
func (c Cons) ToPrim() Prim {
	inv := 1 / c.R
	u, v, w := c.RU*inv, c.RV*inv, c.RW*inv
	ke := 0.5 * (c.RU*u + c.RV*v + c.RW*w)
	return Prim{
		Rho: c.R,
		U:   u, V: v, W: w,
		P:  Pressure(c.E, ke, c.G, c.Pi),
		G:  c.G,
		Pi: c.Pi,
	}
}

// Pressure inverts the stiffened equation of state:
// p = (E - ke - Π)/Γ.
func Pressure(e, ke, g, pi float64) float64 { return (e - ke - pi) / g }

// Energy evaluates the stiffened equation of state:
// E = Γp + Π + ke.
func Energy(p, ke, g, pi float64) float64 { return g*p + pi + ke }

// SoundSpeed returns the speed of sound of the mixture,
// c = sqrt(((Γ+1)p + Π) / (Γ ρ)), which reduces to sqrt(γ(p+p_c)/ρ)
// in a pure phase.
func SoundSpeed(rho, p, g, pi float64) float64 {
	c2 := ((g+1)*p + pi) / (g * rho)
	if c2 < 0 {
		// Near-vacuum states from aggressive reconstruction can momentarily
		// produce tiny negative arguments; clamp to keep DT finite.
		return 0
	}
	return math.Sqrt(c2)
}

// CharVel returns the maximum characteristic velocity |u|+c of a state; its
// global maximum drives the CFL time step (the paper's DT/SOS kernel).
func (p Prim) CharVel() float64 {
	c := SoundSpeed(p.Rho, p.P, p.G, p.Pi)
	m := math.Abs(p.U)
	if a := math.Abs(p.V); a > m {
		m = a
	}
	if a := math.Abs(p.W); a > m {
		m = a
	}
	return m + c
}

// Gamma returns the effective specific heat ratio γ = 1 + 1/Γ of the state.
func (p Prim) Gamma() float64 { return 1 + 1/p.G }

// PcEff returns the effective correction pressure p_c = Π/(Γ+1) ... derived
// from Π = γ p_c Γ with γ = 1+1/Γ: p_c = Π/(Γ γ) = Π/(Γ+1).
func (p Prim) PcEff() float64 { return p.Pi / (p.G + 1) }

// Mix linearly blends the material functions of two phases by the volume
// fraction a of phase m2 (a=0 → m1, a=1 → m2). Blending Γ and Π (not γ and
// p_c) is the paper's interface-capturing choice.
func Mix(m1, m2 Material, a float64) (g, pi float64) {
	g = (1-a)*m1.G() + a*m2.G()
	pi = (1-a)*m1.P() + a*m2.P()
	return
}

// KineticEnergy returns ke = ρ|u|²/2 from conserved variables.
func (c Cons) KineticEnergy() float64 {
	return 0.5 * (c.RU*c.RU + c.RV*c.RV + c.RW*c.RW) / c.R
}
