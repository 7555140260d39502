package cluster

import (
	"math"
	"testing"

	"cubism/internal/mpi"
)

// collectByID runs the config for steps steps and returns the final block
// states keyed by canonical linear block id — a layout-independent view of
// the global field. When rebalanceAt > 0, a forced rebalance (cut
// recomputation + block migration) runs after that step; moved receives the
// global ownership-change count of the last rebalance.
func collectByID(t *testing.T, cfg Config, steps, rebalanceAt int) (map[int64][]float32, int) {
	t.Helper()
	n := cfg.RankDims[0] * cfg.RankDims[1] * cfg.RankDims[2]
	world := mpi.NewWorld(n)
	type rankData struct {
		blocks map[int64][]float32
		moved  int
	}
	out := make(chan rankData, n)
	world.Run(func(comm *mpi.Comm) {
		r := NewRank(comm, cfg)
		defer r.Close()
		moved := 0
		for s := 0; s < steps; s++ {
			r.Advance()
			if rebalanceAt > 0 && r.Step == rebalanceAt {
				moved = r.Rebalance(0, true).Moved
			}
		}
		blocks := make(map[int64][]float32, len(r.G.Blocks))
		for _, b := range r.G.Blocks {
			id := r.Layout.LinearID([3]int{b.X, b.Y, b.Z})
			blocks[id] = append([]float32(nil), b.Data...)
		}
		out <- rankData{blocks: blocks, moved: moved}
	})
	close(out)
	data := make(map[int64][]float32)
	moved := 0
	for rd := range out {
		for id, blk := range rd.blocks {
			if _, dup := data[id]; dup {
				t.Fatalf("block %d owned by more than one rank", id)
			}
			data[id] = blk
		}
		moved = max(moved, rd.moved)
	}
	return data, moved
}

// compareByID asserts two id-keyed global fields are bitwise identical.
func compareByID(t *testing.T, a, b map[int64][]float32, msg string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: block counts differ: %d vs %d", msg, len(a), len(b))
	}
	for id, blkA := range a {
		blkB, ok := b[id]
		if !ok {
			t.Fatalf("%s: block %d missing", msg, id)
		}
		for i := range blkA {
			if math.Float32bits(blkA[i]) != math.Float32bits(blkB[i]) {
				t.Fatalf("%s: block %d value %d differs: %x vs %x",
					msg, id, i, blkA[i], blkB[i])
			}
		}
	}
}

// TestLayoutBitwiseIdentity: the same global problem advanced under the
// cartesian layout and, on the pipelined step, under every SFC layout must
// produce bitwise identical block states — the decomposition is an
// implementation detail invisible to the physics.
func TestLayoutBitwiseIdentity(t *testing.T) {
	const steps = 5
	ref, _ := collectByID(t, determinismConfig(), steps, 0)
	for _, name := range []string{"hilbert", "morton", "rowmajor"} {
		t.Run(name, func(t *testing.T) {
			cfg := determinismConfig()
			cfg.Layout = name
			cfg.Pipeline = true
			got, _ := collectByID(t, cfg, steps, 0)
			compareByID(t, ref, got, "layout "+name+" diverges from cartesian")
		})
	}
}

// TestMigrationBitwiseIdentity: a pipelined run that starts from skewed
// curve cuts and rebalances mid-run (migrating live blocks across ranks)
// must continue bitwise identically to an undisturbed cartesian run — block
// migration at a step boundary is invisible to the trajectory.
func TestMigrationBitwiseIdentity(t *testing.T) {
	const steps = 6
	ref, _ := collectByID(t, determinismConfig(), steps, 0)
	cfg := determinismConfig()
	cfg.Layout = "hilbert"
	cfg.Pipeline = true
	// Skew the initial partition (global box 4x2x2 = 16 blocks, 4 ranks).
	cfg.LayoutCuts = []int{0, 7, 10, 13, 16}
	got, moved := collectByID(t, cfg, steps, 3)
	if moved == 0 {
		t.Fatal("forced rebalance moved no blocks; migration path not exercised")
	}
	compareByID(t, ref, got, "migrated run diverges from cartesian baseline")
}

// TestRebalanceCartesianIsNoOp: the degenerate cartesian layout has no
// curve to re-cut; Rebalance must still report the measured imbalance but
// never migrate.
func TestRebalanceCartesianIsNoOp(t *testing.T) {
	cfg := determinismConfig()
	n := cfg.RankDims[0] * cfg.RankDims[1] * cfg.RankDims[2]
	world := mpi.NewWorld(n)
	world.Run(func(comm *mpi.Comm) {
		r := NewRank(comm, cfg)
		defer r.Close()
		r.Advance()
		res := r.Rebalance(0, true)
		if res.Rebalanced || res.Moved != 0 {
			t.Errorf("cartesian rebalance migrated %d blocks", res.Moved)
		}
		if r.Migrations() != 0 {
			t.Errorf("cartesian rank recorded %d migrations", r.Migrations())
		}
	})
}
