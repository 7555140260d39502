package cluster

import (
	"math"

	"cubism/internal/core"
	"cubism/internal/grid"
	"cubism/internal/physics"
)

// Totals holds globally reduced conserved-quantity integrals plus the
// bounds of the advected material functions — the observables the
// verification subsystem audits per step. Integrals are cell sums scaled by
// the cell volume h³, accumulated with compensated summation so the audit
// resolves drifts far below float32 resolution of the state itself.
type Totals struct {
	Time float64
	Step int

	Mass        float64 // ∫ρ dV
	MomX        float64 // ∫ρu dV
	MomY        float64 // ∫ρv dV
	MomZ        float64 // ∫ρw dV
	Energy      float64 // ∫E dV
	GammaMin    float64 // min Γ over all cells
	GammaMax    float64 // max Γ
	PiMin       float64 // min Π
	PiMax       float64 // max Π
	AbsMomSum   float64 // ∫(|ρu|+|ρv|+|ρw|) dV, the momentum-drift scale
	NonFinite   int     // cells holding NaN or Inf in any quantity
	GlobalCells int64   // global cell count behind the integrals
}

// ConservedTotals integrates the conserved quantities over the global
// domain in one collective fold (see EndStep) whose result every rank
// receives. Its bit patterns are invariant under the layout, the rank count
// and any migration history, so the checksum files of a cartesian run
// compare bitwise against a rebalanced SFC run.
func (r *Rank) ConservedTotals() Totals {
	return r.EndStep(Schedule{AuditEvery: 1}, 0).Totals
}

// auditBlock appends block b's six Kahan partials (mass, momentum, energy,
// |momentum|) to x and updates the bounds and non-finite count in its head.
func (r *Rank) auditBlock(x []float64, b *grid.Block) []float64 {
	n := r.G.N
	gMin, gMax := x[fGammaMin], x[fGammaMax]
	piMin, piMax := x[fPiMin], x[fPiMax]
	var mass, mx, my, mz, e, amom core.KahanSum
	for iz := 0; iz < n; iz++ {
		for iy := 0; iy < n; iy++ {
			for ix := 0; ix < n; ix++ {
				c := b.At(ix, iy, iz)
				for q := 0; q < physics.NQ; q++ {
					if !finite32(c[q]) {
						x[fNonFinite]++
						break
					}
				}
				mass.Add(float64(c[physics.QR]))
				mx.Add(float64(c[physics.QU]))
				my.Add(float64(c[physics.QV]))
				mz.Add(float64(c[physics.QW]))
				e.Add(float64(c[physics.QE]))
				amom.Add(abs64(float64(c[physics.QU])) +
					abs64(float64(c[physics.QV])) + abs64(float64(c[physics.QW])))
				gv, pv := float64(c[physics.QG]), float64(c[physics.QP])
				if gv < gMin {
					gMin = gv
				}
				if gv > gMax {
					gMax = gv
				}
				if pv < piMin {
					piMin = pv
				}
				if pv > piMax {
					piMax = pv
				}
			}
		}
	}
	x[fGammaMin], x[fGammaMax] = gMin, gMax
	x[fPiMin], x[fPiMax] = piMin, piMax
	return append(x, mass.Value(), mx.Value(), my.Value(), mz.Value(), e.Value(), amom.Value())
}

func finite32(v float32) bool {
	f := float64(v)
	return f == f && f < math.Inf(1) && f > math.Inf(-1)
}

func abs64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
