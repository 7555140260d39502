package cluster

import (
	"math"
	"testing"

	"cubism/internal/grid"
	"cubism/internal/mpi"
	"cubism/internal/physics"
)

// collectBlockData runs the config for the given number of steps and
// returns every rank's raw float32 block state keyed by (rank, curve index).
func collectBlockData(t *testing.T, cfg Config, steps int, step func(*Rank)) map[[2]int][]float32 {
	t.Helper()
	n := cfg.RankDims[0] * cfg.RankDims[1] * cfg.RankDims[2]
	world := mpi.NewWorld(n)
	type rankData struct {
		rank   int
		blocks [][]float32
	}
	out := make(chan rankData, n)
	world.Run(func(comm *mpi.Comm) {
		r := NewRank(comm, cfg)
		for s := 0; s < steps; s++ {
			step(r)
		}
		blocks := make([][]float32, len(r.G.Blocks))
		for i, b := range r.G.Blocks {
			blocks[i] = append([]float32(nil), b.Data...)
		}
		out <- rankData{rank: comm.Rank(), blocks: blocks}
	})
	close(out)
	data := make(map[[2]int][]float32)
	for rd := range out {
		for i, blk := range rd.blocks {
			data[[2]int{rd.rank, i}] = blk
		}
	}
	return data
}

// determinismConfig is the shared multi-rank, multi-worker configuration of
// the determinism, layout, Vec4 pipeline-equivalence and steady-state tests:
// uneven worker-to-block ratio, periodic exchange on every face, a fully 3D
// field.
func determinismConfig() Config {
	return Config{
		RankDims:  [3]int{2, 2, 1},
		BlockDims: [3]int{2, 1, 2},
		BlockSize: 8,
		Extent:    1,
		BC:        grid.PeriodicBC(),
		Workers:   3, // deliberately uneven vs block count
		CFL:       0.3,
		Init: func(x, y, z float64) physics.Prim {
			// Fully 3D smooth field so every exchange face carries signal.
			return physics.Prim{
				Rho: 1 + 0.3*math.Sin(2*math.Pi*x)*math.Cos(2*math.Pi*y),
				U:   0.2 * math.Sin(2*math.Pi*y),
				V:   -0.1 * math.Cos(2*math.Pi*z),
				W:   0.05 * math.Sin(2*math.Pi*x),
				P:   1 + 0.2*math.Cos(2*math.Pi*z),
				G:   2.5 + 0.5*boxcar(x),
				Pi:  0.25 * boxcar(x),
			}
		},
	}
}

// TestMultiRankDeterminism: two identical multi-rank, multi-worker runs of
// the pipelined step must produce byte-identical block data — the halo
// exchange, worker scheduling and reduction order must not leak
// nondeterminism into the state. Run under -race via `make race`.
func TestMultiRankDeterminism(t *testing.T) {
	t.Run("Pipeline", func(t *testing.T) {
		cfg := determinismConfig()
		cfg.Pipeline = true
		const steps = 5
		a := collectBlockData(t, cfg, steps, advance)
		b := collectBlockData(t, cfg, steps, advance)
		compareBlockData(t, a, b, "runs are not bitwise deterministic")
	})
}

// compareBlockData asserts two collected states are bitwise identical
// (NaNs of any payload compare equal).
func compareBlockData(t *testing.T, a, b map[[2]int][]float32, msg string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("block counts differ: %d vs %d", len(a), len(b))
	}
	for key, blkA := range a {
		blkB, ok := b[key]
		if !ok {
			t.Fatalf("rank %d block %d missing in second run", key[0], key[1])
		}
		for i := range blkA {
			if blkA[i] != blkB[i] && !(isNaN32(blkA[i]) && isNaN32(blkB[i])) {
				t.Fatalf("rank %d block %d word %d: %v != %v — %s",
					key[0], key[1], i, blkA[i], blkB[i], msg)
			}
		}
	}
}

func boxcar(x float64) float64 {
	if x >= 0.25 && x < 0.75 {
		return 1
	}
	return 0
}

func isNaN32(v float32) bool { return v != v }
