package cluster

import (
	"math"
	"sort"

	"cubism/internal/core"
	"cubism/internal/grid"
	"cubism/internal/mpi"
	"cubism/internal/telemetry"
)

// Schedule is a run's uniform observation cadence, identical on every
// rank: the steps whose end-of-step fold carries diagnostics and conserved
// totals. A step's collectives thus follow from the step number alone,
// never from a rank's local observers (telemetry, controller, step log).
type Schedule struct {
	DiagEvery  int       // diagnostics every so many steps (≤ 0: never)
	AuditEvery int       // conserved totals every so many steps (≤ 0: never)
	Wall       grid.Face // reflecting wall face of the wall-pressure diagnostic
	HasWall    bool
}

// StepFold is the result of one end-of-step fold, identical on every rank.
type StepFold struct {
	Imbalance float64 // max/avg − 1 of the step seconds passed to EndStep
	Diag      Diagnostics
	HasDiag   bool
	Totals    Totals
	HasTotals bool
}

// Head slots of the fold's per-rank vector, before the per-block records:
// MaxOp folds those before fStepSum, SumOp the rest. Minima travel negated;
// −max(−x) is bitwise the a < b ? a : b minimum, NaN and ±0 included.
const (
	fStepMax = iota
	fPressure
	fWallPressure
	fGammaMin
	fGammaMax
	fPiMin
	fPiMax
	fStepSum
	fNonFinite
	fHead
)

// BeginStep opens a step with its first collective, the DT reduction
// carrying this rank's stop flag. If any rank asked to stop, every rank
// returns stopped with the state untouched; otherwise RKStep advances it.
func (r *Rank) BeginStep(stop bool) (dt float64, stopped bool) {
	dt, stopped = r.maxDT(stop)
	if !stopped {
		r.RKStep(dt)
	}
	return dt, stopped
}

// EndStep closes a step with its second and last collective, one fold: the
// cross-rank imbalance of stepSec (this rank's step seconds so far) plus,
// on the steps s makes due, the diagnostics and the conserved totals.
func (r *Rank) EndStep(s Schedule, stepSec float64) StepFold {
	sp := r.tr.StartSpan("fold", r.rankID, 0)
	defer sp.End()
	diag := s.DiagEvery > 0 && r.Step%s.DiagEvery == 0
	audit := s.AuditEvery > 0 && r.Step%s.AuditEvery == 0
	k := 0 // per-block partials: 2 diagnostics, 6 audit
	if diag {
		k += 2
	}
	if audit {
		k += 6
	}
	x := make([]float64, fHead)
	x[fStepMax], x[fStepSum] = stepSec, stepSec
	x[fGammaMin], x[fGammaMax], x[fPiMin], x[fPiMax] = math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1)
	if k > 0 {
		for _, b := range r.G.Blocks {
			x = append(x, float64(r.Layout.LinearID([3]int{b.X, b.Y, b.Z})))
			if diag {
				x = r.diagBlock(x, b, s.Wall, s.HasWall)
			}
			if audit {
				x = r.auditBlock(x, b)
			}
		}
	}
	x[fGammaMin], x[fPiMin] = -x[fGammaMin], -x[fPiMin]
	g := r.Comm.Fold(x, func(parts [][]float64) []float64 { return combineFold(parts, k) })

	f := StepFold{Imbalance: telemetry.Imbalance(g[fStepMax], g[fStepSum]/float64(r.Comm.Size()))}
	sums := g[fHead:]
	if diag {
		f.Diag = Diagnostics{Time: r.Time, Step: r.Step, MaxPressure: g[fPressure],
			WallPressure: g[fWallPressure], KineticEnergy: sums[0], VaporVolume: sums[1],
			EquivRadius: equivRadius(sums[1])}
		f.HasDiag, sums = true, sums[2:]
	}
	if audit {
		h3 := r.G.H * r.G.H * r.G.H
		f.Totals = Totals{
			Time: r.Time, Step: r.Step,
			Mass: sums[0] * h3, MomX: sums[1] * h3, MomY: sums[2] * h3,
			MomZ: sums[3] * h3, Energy: sums[4] * h3, AbsMomSum: sums[5] * h3,
			GammaMin: -g[fGammaMin], GammaMax: g[fGammaMax], PiMin: -g[fPiMin], PiMax: g[fPiMax],
			NonFinite: int(g[fNonFinite]), GlobalCells: int64(r.G.Desc.Cells())}
		f.HasTotals = true
	}
	return f
}

// combineFold is rank 0's half of the fold: head slots fold in ascending
// rank order, and the per-block records (canonical linear id, k partials)
// are Kahan-folded in id order. That order is a property of the global
// block box, not of the layout, rank count or migration history, so the
// result is bitwise identical across all of them.
func combineFold(parts [][]float64, k int) []float64 {
	out := append([]float64(nil), parts[0][:fHead]...)
	var recs [][]float64
	for i, p := range parts {
		for j := 0; i > 0 && j < fHead; j++ {
			op := mpi.MaxOp
			if j >= fStepSum {
				op = mpi.SumOp
			}
			out[j] = op(out[j], p[j])
		}
		for off := fHead; off < len(p); off += 1 + k {
			recs = append(recs, p[off:off+1+k])
		}
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a][0] < recs[b][0] })
	for j := 1; j <= k; j++ {
		var s core.KahanSum
		for _, rec := range recs {
			s.Add(rec[j])
		}
		out = append(out, s.Value())
	}
	return out
}
