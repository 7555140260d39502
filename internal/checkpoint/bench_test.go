package checkpoint_test

import (
	"path/filepath"
	"sync"
	"testing"

	"cubism/internal/checkpoint"
	"cubism/internal/cluster"
	"cubism/internal/grid"
	"cubism/internal/mpi"
	"cubism/internal/scenario"
)

// benchGrid is one rank of 2×2×1 blocks of 32³ holding the cloud case's
// two-phase field after six steps, as in the snapshot32_io benchmark: the
// collapse has started, so velocities and the interfaces carry real bits.
var benchGrid = sync.OnceValues(func() (*grid.Grid, error) {
	c, err := scenario.Build("cloud", scenario.Params{
		Ranks: [3]int{1, 1, 1}, Blocks: [3]int{2, 2, 1}, BlockSize: 32, Workers: 1, Seed: 42,
	})
	if err != nil {
		return nil, err
	}
	var g *grid.Grid
	mpi.NewWorld(1).Run(func(comm *mpi.Comm) {
		r := cluster.NewRank(comm, c.Config.Cluster)
		defer r.Close()
		for i := 0; i < 6; i++ {
			r.Advance()
		}
		g = r.G
	})
	return g, nil
})

// stateBytes is the raw float32 size of g's state, the unit of MB/s.
func stateBytes(g *grid.Grid) int64 {
	var n int64
	for _, b := range g.Blocks {
		n += 4 * int64(len(b.Data))
	}
	return n
}

// BenchmarkCheckpointWrite times checkpoint.Write of the developed field
// (deflate plus the one-rank collective file write).
func BenchmarkCheckpointWrite(b *testing.B) {
	g, err := benchGrid()
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "state.ckp")
	b.SetBytes(stateBytes(g))
	b.ReportAllocs()
	b.ResetTimer()
	mpi.NewWorld(1).Run(func(comm *mpi.Comm) {
		for i := 0; i < b.N; i++ {
			if err := checkpoint.Write(comm, path, g, [3]int{1, 1, 1}, 6, 0); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkCheckpointRestore times checkpoint.Restore of that checkpoint
// into a fresh grid of the same layout (file read plus inflate).
func BenchmarkCheckpointRestore(b *testing.B) {
	g, err := benchGrid()
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "state.ckp")
	mpi.NewWorld(1).Run(func(comm *mpi.Comm) {
		err = checkpoint.Write(comm, path, g, [3]int{1, 1, 1}, 6, 0)
	})
	if err != nil {
		b.Fatal(err)
	}
	dst := grid.New(g.Desc)
	b.SetBytes(stateBytes(g))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := checkpoint.Restore(path, dst); err != nil {
			b.Fatal(err)
		}
	}
}
