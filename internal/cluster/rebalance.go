package cluster

import (
	"fmt"

	"cubism/internal/grid"
	"cubism/internal/layout"
	"cubism/internal/mpi"
	"cubism/internal/sfc"
	"cubism/internal/telemetry"
)

// RebalanceResult reports one rebalance decision. All fields are identical
// on every rank (the decision is computed from an allgathered load vector).
type RebalanceResult struct {
	// Imbalance is max/avg − 1 of the per-rank load metric since the last
	// check (pool busy time), the trigger quantity.
	Imbalance float64
	// Rebalanced reports whether the cut points were recomputed and blocks
	// migrated.
	Rebalanced bool
	// Moved counts the global ownership changes of the accepted layout.
	Moved int
}

// Rebalance measures the per-rank load since the previous call and, when
// the imbalance max/avg − 1 exceeds threshold (or force is set), recomputes
// the layout's curve cut points from the measured loads and migrates the
// reassigned blocks to their new owners. Collective; must be called at a
// step boundary (between RK steps) on every rank, outside any halo epoch.
//
// Determinism: every rank derives the new cuts from the same allgathered
// load vector with the same deterministic algorithm, so all ranks agree on
// the new layout without further coordination. Migrating only the conserved
// state Block.Data is lossless because the low-storage RK registers are
// step-local (RK3A[0] = 0 resets the register at the top of each step), so
// a migrated run continues bitwise identically to an unmigrated one.
func (r *Rank) Rebalance(threshold float64, force bool) RebalanceResult {
	sp := r.tr.StartSpan("rebalance", r.rankID, 0)
	defer sp.End()
	busy := r.Engine.PoolStats().BusyNS
	load := busy - r.lastBusyNS
	r.lastBusyNS = busy
	loads := r.Comm.Gather(float64(load))
	res := RebalanceResult{Imbalance: imbalance(loads)}
	if !r.Layout.CanRebalance() {
		return res
	}
	if res.Imbalance < threshold && !force {
		return res
	}
	newLay := r.Layout.WithCuts(r.loadCuts(loads, force))
	res.Moved = layout.Diff(r.Layout, newLay)
	if res.Moved == 0 {
		return res
	}
	res.Rebalanced = true
	r.migrate(newLay)
	return res
}

// imbalance is max/avg − 1 of a load vector (0 for an idle or empty one).
func imbalance(loads []float64) float64 {
	var sum, max float64
	for _, v := range loads {
		sum += v
		if v > max {
			max = v
		}
	}
	return telemetry.Imbalance(max, sum/float64(len(loads)))
}

// loadCuts derives new curve cut points from the per-rank load vector:
// each block is weighted by its owner's measured load divided by the
// owner's block count, and the weighted partitioner places the cuts so the
// per-chunk weight is as even as possible. When forcing with a degenerate
// (uniform or idle) load vector — the test hook — synthetic rank-indexed
// weights guarantee the cuts actually move.
func (r *Rank) loadCuts(loads []float64, force bool) []int {
	lay := r.Layout
	counts := make([]float64, lay.NRanks)
	for rank := 0; rank < lay.NRanks; rank++ {
		counts[rank] = float64(lay.Cuts[rank+1] - lay.Cuts[rank])
	}
	weights := make([]float64, lay.TotalBlocks())
	degenerate := true
	for rank := 0; rank < lay.NRanks; rank++ {
		w := loads[rank] / counts[rank]
		if rank > 0 && loads[rank] != loads[0] {
			degenerate = false
		}
		for i := lay.Cuts[rank]; i < lay.Cuts[rank+1]; i++ {
			weights[i] = w
		}
	}
	if force && degenerate {
		for rank := 0; rank < lay.NRanks; rank++ {
			for i := lay.Cuts[rank]; i < lay.Cuts[rank+1]; i++ {
				weights[i] = float64(rank + 1)
			}
		}
	}
	return sfc.PartitionWeighted(weights, lay.NRanks)
}

// migrate ships every reassigned block's conserved state from its old
// owner to its new one over the point-to-point transport (TagMigrate
// namespace, outside any halo epoch), rebuilds the rank-local grid in the
// new layout's block order, and recomputes the neighbor topology.
func (r *Rank) migrate(newLay *layout.Layout) {
	me := r.Comm.Rank()
	oldLay := r.Layout
	r.Comm.BeginTagEpoch()
	old := make(map[int64]*grid.Block, len(r.G.Blocks))
	for _, b := range r.G.Blocks {
		c := [3]int{b.X, b.Y, b.Z}
		id := oldLay.LinearID(c)
		old[id] = b
		if owner := newLay.Owner(c); owner != me {
			// Sends complete at post; the old grid is immutable from here.
			r.Comm.Isend(owner, mpi.TagMigrate(id), b.Data)
			r.migrations++
		}
	}
	coords := newLay.Blocks(me)
	g := grid.NewPartial(r.G.Desc, coords)
	recvs := make([]*mpi.Request, len(coords))
	for i, c := range coords {
		if _, kept := old[newLay.LinearID(c)]; !kept {
			recvs[i] = r.Comm.Irecv(oldLay.Owner(c), mpi.TagMigrate(newLay.LinearID(c)))
		}
	}
	for i, c := range coords {
		if b := old[newLay.LinearID(c)]; b != nil {
			copy(g.Blocks[i].Data, b.Data)
			continue
		}
		data := recvs[i].Wait()
		if len(data) != len(g.Blocks[i].Data) {
			panic(fmt.Sprintf("cluster: migrated block %v payload size %d, want %d",
				c, len(data), len(g.Blocks[i].Data)))
		}
		copy(g.Blocks[i].Data, data)
		r.migrations++
	}
	r.Layout = newLay
	r.G = g
	r.Engine.SetGrid(g)
	r.allocBuffers()
	r.buildTopology()
}

// Migrations returns the cumulative number of blocks this rank has sent or
// received in rebalance migrations (the mpcf_migrations_total metric).
func (r *Rank) Migrations() int64 { return r.migrations }
