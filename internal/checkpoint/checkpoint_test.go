package checkpoint_test

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cubism/internal/checkpoint"
	"cubism/internal/cluster"
	"cubism/internal/dump"
	"cubism/internal/grid"
	"cubism/internal/mpi"
	"cubism/internal/physics"
)

func sodInit(x, y, z float64) physics.Prim {
	g := 1 / (1.4 - 1)
	if x < 0.5 {
		return physics.Prim{Rho: 1, P: 1, G: g, Pi: 0}
	}
	return physics.Prim{Rho: 0.125, P: 0.1, G: g, Pi: 0}
}

func cfg() cluster.Config {
	return cluster.Config{
		RankDims:  [3]int{2, 1, 1},
		BlockDims: [3]int{1, 1, 1},
		BlockSize: 8,
		Extent:    1,
		Workers:   1,
		CFL:       0.3,
		Init:      sodInit,
	}
}

// collect snapshots every cell of a rank's grid.
func collect(r *cluster.Rank) []float32 {
	var out []float32
	for _, b := range r.G.Blocks {
		out = append(out, b.Data...)
	}
	return out
}

// TestRestartBitExact: (3 steps, checkpoint, 3 steps) must equal
// (restore checkpoint, 3 steps) bit for bit — the time step derives from
// the state, so the trajectories coincide exactly.
func TestRestartBitExact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckp")

	final := make([][]float32, 2)
	world := mpi.NewWorld(2)
	world.Run(func(comm *mpi.Comm) {
		r := cluster.NewRank(comm, cfg())
		for i := 0; i < 3; i++ {
			r.Advance()
		}
		if err := r.SaveCheckpoint(path); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 3; i++ {
			r.Advance()
		}
		final[comm.Rank()] = collect(r)
	})

	world2 := mpi.NewWorld(2)
	world2.Run(func(comm *mpi.Comm) {
		r := cluster.NewRank(comm, cfg())
		if err := r.RestoreCheckpoint(path); err != nil {
			t.Error(err)
			return
		}
		if r.Step != 3 {
			t.Errorf("restored step = %d, want 3", r.Step)
		}
		if r.Time <= 0 {
			t.Error("restored time not positive")
		}
		for i := 0; i < 3; i++ {
			r.Advance()
		}
		got := collect(r)
		want := final[comm.Rank()]
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("rank %d elem %d: restart %v vs continuous %v", comm.Rank(), i, got[i], want[i])
				return
			}
		}
	})
}

// TestHeaderRoundTrip: a checkpoint is a dump container — dump.Read parses
// it, the header carries the state quantity, step and time, each writer
// rank holds one stream per block under its layout's canonical ids, and the
// wavelet decoder refuses it with an error.
func TestHeaderRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "h.ckp")
	c := cfg()
	c.BlockDims = [3]int{1, 2, 2}
	c.Layout = "hilbert"
	ids := make([][]int64, 2)
	world := mpi.NewWorld(2)
	world.Run(func(comm *mpi.Comm) {
		r := cluster.NewRank(comm, c)
		defer r.Close()
		for _, b := range r.G.Blocks {
			ids[comm.Rank()] = append(ids[comm.Rank()], r.Layout.LinearID([3]int{b.X, b.Y, b.Z}))
		}
		r.Step, r.Time = 17, 3.5e-4
		if err := r.SaveCheckpoint(path); err != nil {
			t.Error(err)
		}
	})
	hdr, ranks, err := dump.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Quantity != "state" || hdr.Step != 17 || hdr.Time != 3.5e-4 || hdr.BlockSize != 8 {
		t.Errorf("header %+v", hdr)
	}
	if len(ranks) != 2 {
		t.Fatalf("%d writer ranks, want 2", len(ranks))
	}
	for r, comp := range ranks {
		if len(comp.Streams) != len(ids[r]) || comp.Blocks != len(ids[r]) {
			t.Errorf("rank %d: %d streams for %d blocks, want one per block", r, len(comp.Streams), len(ids[r]))
		}
		if !slices.Equal(hdr.Ranks[r].BlockIDs, ids[r]) {
			t.Errorf("rank %d ids %v, writer's LinearIDs %v", r, hdr.Ranks[r].BlockIDs, ids[r])
		}
		if _, err := comp.Decompress(); err == nil {
			t.Errorf("rank %d: compress.Decompress accepted a checkpoint payload", r)
		}
	}
}

// TestRestoreIntoDifferentLayout: a checkpoint written by a cartesian
// 2-rank run must restore into a Hilbert-partitioned 4-rank run — different
// layout AND different rank count — and continue bitwise identically to the
// uninterrupted writer. The checkpoint is addressed by global block id, so
// each reading rank pulls its blocks out of whichever writer payloads hold
// them.
func TestRestoreIntoDifferentLayout(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "relayout.ckp")
	writerCfg := cluster.Config{
		RankDims:  [3]int{2, 1, 1},
		BlockDims: [3]int{2, 2, 2}, // global box 4x2x2
		BlockSize: 8,
		Extent:    1,
		Workers:   1,
		CFL:       0.3,
		Init:      sodInit,
	}
	readerCfg := writerCfg
	readerCfg.RankDims = [3]int{4, 1, 1}
	readerCfg.BlockDims = [3]int{1, 2, 2} // same global box
	readerCfg.Layout = "hilbert"

	// byID flattens a rank's blocks into canonical-id-keyed copies.
	byID := func(r *cluster.Rank) map[int64][]float32 {
		out := make(map[int64][]float32, len(r.G.Blocks))
		for _, b := range r.G.Blocks {
			id := (int64(b.Z)*int64(r.G.NBY)+int64(b.Y))*int64(r.G.NBX) + int64(b.X)
			out[id] = append([]float32(nil), b.Data...)
		}
		return out
	}
	merge := func(dst map[int64][]float32, src map[int64][]float32) {
		for id, blk := range src {
			dst[id] = blk
		}
	}

	want := make(map[int64][]float32)
	parts := make([]map[int64][]float32, 2)
	world := mpi.NewWorld(2)
	world.Run(func(comm *mpi.Comm) {
		r := cluster.NewRank(comm, writerCfg)
		defer r.Close()
		for i := 0; i < 3; i++ {
			r.Advance()
		}
		if err := r.SaveCheckpoint(path); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 3; i++ {
			r.Advance()
		}
		parts[comm.Rank()] = byID(r)
	})
	for _, p := range parts {
		merge(want, p)
	}

	got := make(map[int64][]float32)
	gotParts := make([]map[int64][]float32, 4)
	world2 := mpi.NewWorld(4)
	world2.Run(func(comm *mpi.Comm) {
		r := cluster.NewRank(comm, readerCfg)
		defer r.Close()
		if err := r.RestoreCheckpoint(path); err != nil {
			t.Error(err)
			return
		}
		if r.Step != 3 {
			t.Errorf("restored step = %d, want 3", r.Step)
		}
		for i := 0; i < 3; i++ {
			r.Advance()
		}
		gotParts[comm.Rank()] = byID(r)
	})
	for _, p := range gotParts {
		merge(got, p)
	}

	if len(got) != len(want) || len(want) != 16 {
		t.Fatalf("block coverage: got %d, want %d (16)", len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("block %d missing after re-layout restore", id)
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("block %d elem %d: re-layout %v vs continuous %v", id, i, g[i], w[i])
			}
		}
	}
}

func TestRestoreGeometryMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.ckp")
	world := mpi.NewWorld(1)
	world.Run(func(comm *mpi.Comm) {
		g := grid.New(grid.Desc{N: 8, NBX: 1, NBY: 1, NBZ: 1, H: 0.125})
		if err := checkpoint.Write(comm, path, g, [3]int{1, 1, 1}, 0, 0); err != nil {
			t.Error(err)
		}
	})
	other := grid.New(grid.Desc{N: 8, NBX: 2, NBY: 1, NBZ: 1, H: 0.125})
	if _, _, err := checkpoint.Restore(path, other); err == nil {
		t.Error("expected geometry mismatch error")
	}
}

// TestRestoreV1File: a file in the retired MPCFCkp1 format (here a
// hand-made version-1 file) is refused with an error naming the format,
// not restored and never a panic.
func TestRestoreV1File(t *testing.T) {
	const n = 8
	const legacyMagic = "MPCFCkp1"
	dir := t.TempDir()
	path := filepath.Join(dir, "v1.ckp")

	// One writer rank with 2x1x1 blocks in the historical layout: one zlib
	// stream of every block's float32 bits after a padded JSON header.
	var raw bytes.Buffer
	zw := zlib.NewWriter(&raw)
	zw.Write(make([]byte, 2*n*n*n*physics.NQ*4))
	zw.Close()
	body, err := json.Marshal(map[string]any{
		"block_size": n,
		"rank_dims":  [3]int{1, 1, 1},
		"block_dims": [3]int{2, 1, 1},
		"step":       7,
		"time":       0.5,
		"offsets":    []int64{0}, // refused before any offset is read
		"sizes":      []int64{int64(raw.Len())},
	})
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	file.WriteString(legacyMagic)
	binary.Write(&file, binary.LittleEndian, uint32(len(body)))
	file.Write(body)
	file.Write(raw.Bytes())
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	g := grid.New(grid.Desc{N: n, NBX: 2, NBY: 1, NBZ: 1, H: 0.125})
	if _, _, err := checkpoint.Restore(path, g); err == nil || !strings.Contains(err.Error(), legacyMagic) {
		t.Fatalf("legacy file: err = %v, want a refusal naming %s", err, legacyMagic)
	}
}
