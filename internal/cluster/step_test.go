package cluster

import (
	"math"
	"testing"

	"cubism/internal/grid"
	"cubism/internal/mpi"
)

// TestStepCollectives pins the cluster side of the per-step schedule on a
// 2×2×1 world: BeginStep, Advance, Diagnose, ConservedTotals and EndStep
// each cost exactly one collective, EndStep's observables equal the
// standalone Diagnose and ConservedTotals results, and its imbalance is
// max/avg − 1 of the step seconds the ranks pass in.
func TestStepCollectives(t *testing.T) {
	cfg := sodConfig([3]int{2, 2, 1}, [3]int{1, 1, 2})
	world := mpi.NewWorld(4)
	world.Run(func(comm *mpi.Comm) {
		r := NewRank(comm, cfg)
		cost := func(name string, call func()) {
			c0 := comm.Collectives()
			call()
			if d := comm.Collectives() - c0; d != 1 {
				t.Errorf("rank %d: %s issued %d collectives, want 1", comm.Rank(), name, d)
			}
		}
		cost("Advance", func() { r.Advance() })
		cost("BeginStep", func() {
			if _, stopped := r.BeginStep(false); stopped {
				t.Errorf("rank %d: BeginStep stopped with no stop flag set", comm.Rank())
			}
		})
		var d Diagnostics
		var tot Totals
		var f StepFold
		cost("Diagnose", func() { d = r.Diagnose(grid.ZLo, true) })
		cost("ConservedTotals", func() { tot = r.ConservedTotals() })
		sched := Schedule{DiagEvery: 2, AuditEvery: 2, Wall: grid.ZLo, HasWall: true}
		cost("EndStep", func() { f = r.EndStep(sched, float64(comm.Rank()+1)) })
		if !f.HasDiag || !f.HasTotals {
			t.Errorf("rank %d: step 2 fold lacks observables due on it: %+v", comm.Rank(), f)
		}
		if f.Diag != d {
			t.Errorf("rank %d: fold diagnostics %+v, Diagnose %+v", comm.Rank(), f.Diag, d)
		}
		if f.Totals != tot {
			t.Errorf("rank %d: fold totals %+v, ConservedTotals %+v", comm.Rank(), f.Totals, tot)
		}
		// Step seconds 1..4: max 4, avg 2.5.
		max, avg := 4.0, 2.5
		if want := max/avg - 1; math.Float64bits(f.Imbalance) != math.Float64bits(want) {
			t.Errorf("rank %d: imbalance %v, want %v", comm.Rank(), f.Imbalance, want)
		}

		// A stop flag on one rank stops every rank at the same step,
		// without advancing the state.
		step := r.Step
		cost("BeginStep(stop)", func() {
			if _, stopped := r.BeginStep(comm.Rank() == 3); !stopped {
				t.Errorf("rank %d: rank 3's stop flag did not reach this rank", comm.Rank())
			}
		})
		if r.Step != step {
			t.Errorf("rank %d: a stopped BeginStep advanced to step %d", comm.Rank(), r.Step)
		}
		cost("EndStep off-cadence", func() { f = r.EndStep(Schedule{DiagEvery: 3}, 1) })
		if f.HasDiag || f.HasTotals || f.Imbalance != 0 {
			t.Errorf("rank %d: off-cadence fold carried observables: %+v", comm.Rank(), f)
		}
	})
}
