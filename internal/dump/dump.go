// Package dump implements the compressed dump file format and its parallel
// writer: one file per quantity, written collectively by all ranks through
// the shared-file abstraction, with each rank's variable-size compressed
// payload placed at the offset obtained from an exclusive prefix sum of the
// payload sizes (paper §6, "MPI parallel file I/O is employed to generate a
// single compressed file per quantity ... preceded by an exclusive scan").
//
// Layout:
//
//	magic "MPCFDmp1" | header length (uint32) | JSON header | rank payloads
//
// The JSON header records the global geometry, compression parameters and
// the per-rank (offset, size, streams, block ids) table, so the file is
// self-describing and single-process tools can decompress any subset of
// ranks. The same container carries streamed frames (StreamCollective) and
// full-state checkpoints (internal/checkpoint); only the quantity and coder
// in the header differ.
package dump

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"

	"cubism/internal/compress"
	"cubism/internal/mpi"
)

// Magic identifies dump files.
const Magic = "MPCFDmp1"

// RankEntry locates one rank's payload in the file. It is also the
// per-rank record every rank ships to rank 0 (offset unset) when a file or
// frame is laid out.
type RankEntry struct {
	Offset  int64 `json:"offset"`
	Size    int64 `json:"size"`
	Blocks  int   `json:"blocks"`
	Streams []int `json:"streams"` // encoded stream sizes within the payload
	// BlockIDs lists the canonical (row-major global) linear block ids of
	// the rank's payload in block order. Absent only in pre-layout files,
	// which readers refuse.
	BlockIDs []int64 `json:"block_ids,omitempty"`
}

// Header is the self-describing metadata block of a dump file.
type Header struct {
	Quantity  string      `json:"quantity"`
	Encoder   string      `json:"encoder"`
	Epsilon   float64     `json:"epsilon"`
	BlockSize int         `json:"block_size"`
	RankDims  [3]int      `json:"rank_dims"`
	BlockDims [3]int      `json:"block_dims"` // blocks per rank per dimension
	Layout    string      `json:"layout,omitempty"`
	Step      int         `json:"step"`
	Time      float64     `json:"time"`
	Ranks     []RankEntry `json:"ranks"`
}

// record flattens this rank's streams into one payload and describes it as
// the rank's header entry (offset unset) — the one per-rank record both the
// file writer and the frame stream ship to rank 0.
func record(c *compress.Compressed, blockIDs []int64) (RankEntry, []byte) {
	e := RankEntry{Blocks: c.Blocks, Streams: make([]int, len(c.Streams)), BlockIDs: blockIDs}
	var payload []byte
	for i, s := range c.Streams {
		e.Streams[i] = len(s)
		payload = append(payload, s...)
	}
	e.Size = int64(len(payload))
	return e, payload
}

// WriteCollective writes one quantity's compressed payload from every rank
// into a single shared file. blockIDs (optional, may be nil) lists the
// canonical linear ids of this rank's blocks in payload order; when given,
// the header records every rank's table so readers can reassemble the
// global field under any layout. All ranks must call it; returns the number
// of payload bytes this rank wrote.
func WriteCollective(comm *mpi.Comm, path string, hdr Header, c *compress.Compressed, blockIDs []int64) (int64, error) {
	entry, payload := record(c, blockIDs)
	// Exclusive prefix sum assigns contiguous regions in rank order.
	prefix := comm.Exscan(entry.Size)
	// Rank 0 lays out the header from every rank's record and shares the
	// payload base offset: its length, or -1 when it failed to build it.
	meta, _ := json.Marshal(entry) // a struct of ints cannot fail to marshal
	metas := comm.GatherBytesRoot(meta)
	var head []byte
	var herr error
	if comm.Rank() == 0 {
		entries := make([]RankEntry, len(metas))
		for r, m := range metas {
			if err := json.Unmarshal(m, &entries[r]); err != nil {
				herr = fmt.Errorf("dump: rank %d record: %v", r, err)
			}
		}
		if herr == nil {
			head, herr = buildHeader(&hdr, entries)
		}
	}
	mine := float64(len(head))
	if herr != nil {
		mine = -1
	}
	base := int64(comm.Allreduce(mine, mpi.SumOp))
	if base < 0 {
		return 0, cmp.Or(herr, fmt.Errorf("dump: rank 0 could not lay out the header of %s", path))
	}

	f, err := mpi.CreateShared(comm, path)
	if err != nil {
		return 0, err
	}
	if comm.Rank() == 0 {
		if _, err := f.WriteAt(head, 0); err != nil {
			return 0, err
		}
	}
	if len(payload) > 0 {
		if _, err := f.WriteAt(payload, base+prefix); err != nil {
			return 0, err
		}
	}
	// Ensure all writes land before any rank proceeds (and the file can be
	// closed/read).
	comm.Barrier()
	return entry.Size, f.Close()
}

// buildHeader lays out the file prefix — magic, header length and the
// padded fixed-size JSON header — from the per-rank entries (offsets are
// assigned here). It is the only header serializer, which is what makes a
// streamed frame bitwise identical to the file.
func buildHeader(hdr *Header, entries []RankEntry) ([]byte, error) {
	hdr.Ranks = entries
	// Two passes: encode with zero offsets to learn the header length,
	// then fix the offsets and re-encode with padding to fixed size.
	probe, err := json.Marshal(hdr)
	if err != nil {
		return nil, err
	}
	// Reserve room for offset digits growing after assignment.
	headerLen := len(probe) + 32*len(entries)
	start := len(Magic) + 4
	off := int64(start + headerLen)
	for r := range hdr.Ranks {
		hdr.Ranks[r].Offset = off
		off += hdr.Ranks[r].Size
	}
	body, err := json.Marshal(hdr)
	if err != nil {
		return nil, err
	}
	if len(body) > headerLen {
		return nil, fmt.Errorf("dump: header length estimate too small (%d > %d)", len(body), headerLen)
	}
	head := make([]byte, start+headerLen)
	copy(head, Magic)
	binary.LittleEndian.PutUint32(head[len(Magic):], uint32(headerLen))
	for i := start + copy(head[start:], body); i < len(head); i++ {
		head[i] = ' '
	}
	return head, nil
}

// Read opens a dump file and returns its header and the per-rank compressed
// payloads, reassembled into compress.Compressed values ready to
// Decompress.
func Read(path string) (Header, []*compress.Compressed, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Header{}, nil, err
	}
	hdr, out, err := Decode(data)
	if err != nil {
		return hdr, nil, fmt.Errorf("dump: %s: %v", path, err)
	}
	return hdr, out, nil
}

// Decode parses a complete dump file (or streamed frame — the bytes are
// identical) held in memory. Every field of the self-describing header is
// untrusted: offsets, sizes and stream tables are bounds-checked before
// they slice the data, so corrupt or adversarial frames fail with an error
// instead of a panic or an outsized allocation.
func Decode(data []byte) (Header, []*compress.Compressed, error) {
	var hdr Header
	if len(data) < len(Magic)+4 || string(data[:len(Magic)]) != Magic {
		return hdr, nil, fmt.Errorf("bad magic")
	}
	hlen := int(binary.LittleEndian.Uint32(data[len(Magic):]))
	hstart := len(Magic) + 4
	if hlen < 0 || hstart+hlen > len(data) {
		return hdr, nil, fmt.Errorf("truncated header")
	}
	if err := json.Unmarshal(trimSpaces(data[hstart:hstart+hlen]), &hdr); err != nil {
		return hdr, nil, err
	}
	out := make([]*compress.Compressed, len(hdr.Ranks))
	for r, re := range hdr.Ranks {
		if re.Offset < 0 || re.Size < 0 || re.Size > int64(len(data)) || re.Offset+re.Size > int64(len(data)) {
			return hdr, nil, fmt.Errorf("rank %d payload out of range", r)
		}
		payload := data[re.Offset : re.Offset+re.Size]
		c := &compress.Compressed{
			N:        hdr.BlockSize,
			Blocks:   re.Blocks,
			Quantity: hdr.Quantity,
			Encoder:  hdr.Encoder,
			Epsilon:  hdr.Epsilon,
		}
		off := 0
		for _, sz := range re.Streams {
			if sz < 0 || sz > len(payload)-off {
				return hdr, nil, fmt.Errorf("rank %d stream table out of range", r)
			}
			c.Streams = append(c.Streams, payload[off:off+sz])
			off += sz
		}
		if int64(off) != re.Size {
			return hdr, nil, fmt.Errorf("rank %d stream table inconsistent", r)
		}
		out[r] = c
	}
	return hdr, out, nil
}

// trimSpaces removes the trailing padding of the fixed-size header.
func trimSpaces(b []byte) []byte {
	end := len(b)
	for end > 0 && b[end-1] == ' ' {
		end--
	}
	return b[:end]
}
