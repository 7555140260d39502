// Package checkpoint provides lossless save/restore of the full simulation
// state. The paper avoids full-state serialization at production scale
// ("the serialization to file of the simulation state would involve I/O
// operations on Petabytes of data") by dumping only wavelet-compressed p
// and Γ; a reusable library nevertheless needs restartability, so this
// package writes the complete conserved state (all seven quantities, bit
// exact) as a dump container (internal/dump) of quantity "state".
//
// Each block is one zlib stream of its raw float32 bits, not a wavelet
// stream: the ε = 0 wavelet round trip is only within ulps, and a restart
// must be bitwise. The container's per-rank block-id tables address the
// checkpoint by global block, not by writer decomposition, so it restores
// into any layout and rank count sharing the same global block box: each
// reading rank inflates exactly the blocks it owns.
package checkpoint

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"cubism/internal/compress"
	"cubism/internal/dump"
	"cubism/internal/grid"
	"cubism/internal/layout"
	"cubism/internal/mpi"
	"cubism/internal/physics"
)

// The container header fields that mark a checkpoint. The coder name is
// one no wavelet decoder accepts, so compress.Decompress refuses the file.
const (
	quantity = "state"
	coder    = "raw32+zlib"
)

// level is the deflate level of every block. On a developed two-phase
// field it writes under 1 % more bytes than zlib's default level 6 in
// about two thirds of the time; BestSpeed, which dumps use, writes 2 %
// more. Every level inflates with the same reader, so checkpoints written
// at another level restore unchanged.
const level = 2

// Write saves the rank-local grid state collectively into path. All ranks
// must call it with consistent metadata.
func Write(comm *mpi.Comm, path string, g *grid.Grid, rankDims [3]int, step int, time float64) error {
	box := layout.Layout{GB: [3]int{g.NBX, g.NBY, g.NBZ}}
	c := &compress.Compressed{N: g.N, Blocks: len(g.Blocks), Streams: make([][]byte, len(g.Blocks))}
	ids := make([]int64, len(g.Blocks))
	blockBytes := 4 * physics.NQ * g.N * g.N * g.N
	raw := make([]byte, 0, blockBytes)
	zw, _ := zlib.NewWriterLevel(nil, level) // a valid constant level cannot fail
	for i, b := range g.Blocks {
		ids[i] = box.LinearID([3]int{b.X, b.Y, b.Z})
		raw = raw[:0]
		for _, v := range b.Data {
			raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(v))
		}
		// Deflating into a bytes.Buffer cannot fail, and a rank returning
		// here would leave the others waiting in the collective write. The
		// buffer holds a block's raw size, so a block that does not
		// compress grows it at most once.
		out := bytes.NewBuffer(make([]byte, 0, blockBytes))
		zw.Reset(out)
		zw.Write(raw)
		zw.Close()
		c.Streams[i] = out.Bytes()
	}
	hdr := dump.Header{
		Quantity:  quantity,
		Encoder:   coder,
		BlockSize: g.N,
		RankDims:  rankDims,
		BlockDims: [3]int{g.NBX / rankDims[0], g.NBY / rankDims[1], g.NBZ / rankDims[2]},
		Step:      step,
		Time:      time,
	}
	_, err := dump.WriteCollective(comm, path, hdr, c, ids)
	return err
}

// Restore loads the state of the blocks g owns from the checkpoint. The
// block size and global block box must match the file; the layout and rank
// count are free — each block is inflated from whichever writer payload
// holds it, by canonical id.
func Restore(path string, g *grid.Grid) (step int, simTime float64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	if step, simTime, err = restore(data, g); err != nil {
		return 0, 0, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	return step, simTime, nil
}

// restore decodes a checkpoint image into g. Every header field is
// untrusted: a corrupt or hostile file fails with an error, never a panic.
func restore(data []byte, g *grid.Grid) (int, float64, error) {
	if bytes.HasPrefix(data, []byte("MPCFCkp1")) {
		return 0, 0, fmt.Errorf("retired MPCFCkp1 checkpoint format, no longer readable")
	}
	hdr, ranks, err := dump.Decode(data)
	if err != nil {
		return 0, 0, err
	}
	if hdr.Quantity != quantity || hdr.Encoder != coder {
		return 0, 0, fmt.Errorf("not a checkpoint: quantity %q, coder %q", hdr.Quantity, hdr.Encoder)
	}
	box := layout.Layout{GB: [3]int{g.NBX, g.NBY, g.NBZ}}
	rd, bd := hdr.RankDims, hdr.BlockDims
	if hdr.BlockSize != g.N || [3]int{rd[0] * bd[0], rd[1] * bd[1], rd[2] * bd[2]} != box.GB {
		return 0, 0, fmt.Errorf("geometry mismatch: file %dx%v·%v, grid %dx%v", hdr.BlockSize, rd, bd, g.N, box.GB)
	}
	// Locate every global block: id → (writer rank, ordinal).
	type loc struct{ rank, ord int }
	where := make(map[int64]loc)
	for r, re := range hdr.Ranks {
		if re.Blocks != len(re.BlockIDs) || re.Blocks != len(ranks[r].Streams) {
			return 0, 0, fmt.Errorf("rank %d: %d blocks, %d ids, %d streams", r, re.Blocks, len(re.BlockIDs), len(ranks[r].Streams))
		}
		for ord, id := range re.BlockIDs {
			if id < 0 || id >= int64(box.TotalBlocks()) {
				return 0, 0, fmt.Errorf("rank %d: block id %d outside the box %v", r, id, box.GB)
			}
			if _, dup := where[id]; dup {
				return 0, 0, fmt.Errorf("rank %d: block id %d duplicated", r, id)
			}
			where[id] = loc{r, ord}
		}
	}
	var zr io.ReadCloser
	var raw bytes.Buffer
	for _, b := range g.Blocks {
		id := box.LinearID([3]int{b.X, b.Y, b.Z})
		l, ok := where[id]
		if !ok {
			return 0, 0, fmt.Errorf("block %d missing", id)
		}
		stream := bytes.NewReader(ranks[l.rank].Streams[l.ord])
		if zr == nil {
			zr, err = zlib.NewReader(stream)
		} else {
			err = zr.(zlib.Resetter).Reset(stream, nil)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("block %d: %v", id, err)
		}
		// Read one byte past the block so an oversized stream is caught
		// without inflating all of it.
		want := 4 * len(b.Data)
		raw.Reset()
		raw.Grow(want + 1 + bytes.MinRead) // ReadFrom keeps MinRead free
		if _, err := raw.ReadFrom(io.LimitReader(zr, int64(want)+1)); err != nil {
			return 0, 0, fmt.Errorf("block %d: %v", id, err)
		}
		if raw.Len() != want {
			return 0, 0, fmt.Errorf("block %d: %d bytes inflated, want %d", id, raw.Len(), want)
		}
		p := raw.Bytes()
		for i := range b.Data {
			b.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
		}
	}
	return hdr.Step, hdr.Time, nil
}
