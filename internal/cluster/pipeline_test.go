package cluster

import (
	"runtime"
	"testing"

	"cubism/internal/core"
	"cubism/internal/grid"
	"cubism/internal/mpi"
)

// TestPipelineMatchesStagedBitwise: the dependency-driven fused RHS+UP
// pipeline must produce bitwise identical state to the bulk-synchronous
// staged path on a multi-rank grid, for both kernel variants.
func TestPipelineMatchesStagedBitwise(t *testing.T) {
	for _, vector := range []bool{false, true} {
		name := "Scalar"
		if vector {
			name = "Vector"
		}
		t.Run(name, func(t *testing.T) {
			const steps = 5
			staged := determinismConfig()
			staged.Vector = vector
			a := collectBlockData(t, staged, steps)
			piped := determinismConfig()
			piped.Vector = vector
			piped.Pipeline = true
			b := collectBlockData(t, piped, steps)
			compareBlockData(t, a, b, "pipeline diverges from staged baseline")
		})
	}
}

// TestLinksMatchLayout: the neighbor/tag table precomputed at rank
// construction must agree with the layout — one link exactly for every
// (owned block, face) pair whose neighbor block is remote, pointing at the
// layout's owner — and the table must be globally symmetric (every send has
// a matching receive on the peer). The engine keeps the unmasked global BC:
// inter-rank faces are resolved through the block topology, not by masking.
func TestLinksMatchLayout(t *testing.T) {
	for _, layoutName := range []string{"cartesian", "hilbert"} {
		t.Run(layoutName, func(t *testing.T) {
			cfg := Config{
				RankDims:  [3]int{2, 1, 1},
				BlockDims: [3]int{2, 2, 2},
				BlockSize: 8,
				Extent:    1,
				Workers:   1,
				CFL:       0.3,
				Layout:    layoutName,
			}
			cfg.BC[grid.XLo] = grid.Reflecting
			cfg.BC[grid.XHi] = grid.Reflecting
			const nranks = 2
			world := mpi.NewWorld(nranks)
			type rankLinks struct {
				rank  int
				bc    grid.BC
				links []Link
				want  int
			}
			out := make(chan rankLinks, nranks)
			world.Run(func(comm *mpi.Comm) {
				r := NewRank(comm, cfg)
				defer r.Close()
				// Independently count the remote (block, face) pairs from the
				// layout alone.
				want := 0
				for _, c := range r.Layout.Blocks(comm.Rank()) {
					for f := grid.XLo; f <= grid.ZHi; f++ {
						nc, ok := r.Layout.Neighbor(c, f)
						if ok && nc != c && r.Layout.Owner(nc) != comm.Rank() {
							want++
						}
					}
				}
				for _, lk := range r.Links() {
					b := r.G.Blocks[lk.Block]
					c := [3]int{b.X, b.Y, b.Z}
					nc, ok := r.Layout.Neighbor(c, lk.Face)
					if !ok {
						t.Errorf("rank %d link %+v crosses a physical boundary", comm.Rank(), lk)
					} else if got := r.Layout.Owner(nc); got != lk.Peer {
						t.Errorf("rank %d link %+v: layout owner %d", comm.Rank(), lk, got)
					}
					if lk.MyID != r.Layout.LinearID(c) {
						t.Errorf("rank %d link %+v: MyID != LinearID(%v)", comm.Rank(), lk, c)
					}
				}
				out <- rankLinks{rank: comm.Rank(), bc: r.Engine.BC, links: r.Links(), want: want}
			})
			close(out)
			type half struct {
				peer int
				id   int64
				face grid.Face
			}
			seen := map[half]int{}
			for got := range out {
				if got.bc != cfg.BC {
					t.Errorf("rank %d engine BC %v, want unmasked global %v", got.rank, got.bc, cfg.BC)
				}
				if len(got.links) != got.want {
					t.Errorf("rank %d has %d links, layout implies %d", got.rank, len(got.links), got.want)
				}
				for _, lk := range got.links {
					seen[half{got.rank, lk.MyID, lk.Face}]++
					seen[half{lk.Peer, lk.NbID, opposite(lk.Face)}]--
				}
			}
			for h, n := range seen {
				if n != 0 {
					t.Errorf("asymmetric link table at rank %d block %d face %v (balance %d)",
						h.peer, h.id, h.face, n)
				}
			}
		})
	}
}

// TestOppositeFaceEncoding pins the face encoding the halo exchange relies
// on: the opposite of face f is f with the low bit flipped.
func TestOppositeFaceEncoding(t *testing.T) {
	pairs := [][2]grid.Face{
		{grid.XLo, grid.XHi},
		{grid.YLo, grid.YHi},
		{grid.ZLo, grid.ZHi},
	}
	for _, p := range pairs {
		lo, hi := p[0], p[1]
		if opposite(lo) != hi || opposite(hi) != lo {
			t.Errorf("opposite(%d)=%d, opposite(%d)=%d; want the pair swapped",
				lo, opposite(lo), hi, opposite(hi))
		}
		if opposite(lo) != lo^1 {
			t.Errorf("opposite(%d) != %d^1", lo, lo)
		}
		if lo.Axis() != hi.Axis() {
			t.Errorf("faces %d/%d axes differ", lo, hi)
		}
		if lo.IsHigh() || !hi.IsHigh() {
			t.Errorf("faces %d/%d high bits wrong", lo, hi)
		}
	}
}

// steadyStateConfig is a single-rank periodic setup where every face
// exchanges with itself — the worst case for pack-buffer churn.
func steadyStateConfig(pipeline bool) Config {
	cfg := determinismConfig()
	cfg.RankDims = [3]int{1, 1, 1}
	cfg.BlockDims = [3]int{2, 2, 2}
	cfg.Workers = 2
	cfg.Pipeline = pipeline
	return cfg
}

// TestSteadyStateAllocs: after warmup, a step must not allocate fresh ghost
// payload or reduction buffers; only small bookkeeping (lazy receive
// requests, stage-run headers, collective slots) remains.
func TestSteadyStateAllocs(t *testing.T) {
	for _, pipeline := range []bool{false, true} {
		name := "Staged"
		if pipeline {
			name = "Pipeline"
		}
		t.Run(name, func(t *testing.T) {
			if raceEnabled {
				t.Skip("race-detector shadow allocations break the budget")
			}
			cfg := steadyStateConfig(pipeline)
			world := mpi.NewWorld(1)
			world.Run(func(comm *mpi.Comm) {
				r := NewRank(comm, cfg)
				defer r.Close()
				for s := 0; s < 3; s++ {
					r.Advance() // warmup: buffers reach steady-state capacity
				}
				const steps = 16
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for s := 0; s < steps; s++ {
					r.Advance()
				}
				runtime.ReadMemStats(&after)
				mallocs := float64(after.Mallocs-before.Mallocs) / steps
				bytes := float64(after.TotalAlloc-before.TotalAlloc) / steps
				// The pre-reuse ExchangeGhosts alone allocated ~390 KB/step
				// here (18 PackFace payloads); observed steady state is
				// ~45 mallocs and ~4 KB per step — the budget leaves room
				// for runtime noise but catches any payload churn.
				if mallocs > 150 {
					t.Errorf("%.1f mallocs/step, want <= 150", mallocs)
				}
				if bytes > 32<<10 {
					t.Errorf("%.0f bytes/step allocated, want <= 32KiB", bytes)
				}
			})
		})
	}
}

// TestPoolSpawnConstantAcrossSteps: the engine pool must spawn its workers
// exactly once, no matter how many steps run. The fused run must also
// record every stage under the RHSUP kernel, charged at the fused stage's
// operational intensity, beside one DT per step.
func TestPoolSpawnConstantAcrossSteps(t *testing.T) {
	const steps = 100
	cfg := steadyStateConfig(true)
	world := mpi.NewWorld(1)
	world.Run(func(comm *mpi.Comm) {
		r := NewRank(comm, cfg)
		defer r.Close()
		for s := 0; s < steps; s++ {
			r.Advance()
		}
		rhsup, dt := r.Mon.Kernel("RHSUP").Stats(), r.Mon.Kernel("DT").Stats()
		if rhsup.N != 3*steps || rhsup.GFLOPS() <= 0 ||
			rhsup.Intensity() != core.OperationalIntensityFused(cfg.BlockSize) {
			t.Errorf("RHSUP kernel: %d calls at %.3g GFLOP/s and %.4g FLOP/B, want %d calls at %.4g FLOP/B",
				rhsup.N, rhsup.GFLOPS(), rhsup.Intensity(), 3*steps, core.OperationalIntensityFused(cfg.BlockSize))
		}
		if dt.N != steps || dt.GFLOPS() <= 0 {
			t.Errorf("DT kernel: %d calls at %.3g GFLOP/s, want %d calls", dt.N, dt.GFLOPS(), steps)
		}
		ps := r.Engine.PoolStats()
		if ps.Spawned != int64(cfg.Workers) {
			t.Errorf("spawned %d worker goroutines over 100 steps, want %d",
				ps.Spawned, cfg.Workers)
		}
		if ps.QueueDepth != 0 {
			t.Errorf("queue depth %d after quiescence, want 0", ps.QueueDepth)
		}
		if ps.TasksRun == 0 {
			t.Error("pool ran no tasks")
		}
	})
}
