package checkpoint

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"cubism/internal/dump"
	"cubism/internal/grid"
	"cubism/internal/mpi"
)

// fuzzDesc is the grid every fuzz input is restored into: two blocks of 8³.
var fuzzDesc = grid.Desc{N: 8, NBX: 2, NBY: 1, NBZ: 1, H: 0.125}

// validImage writes a real one-rank checkpoint of fuzzDesc and returns its
// bytes.
func validImage(tb testing.TB) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "seed.ckp")
	g := grid.New(fuzzDesc)
	for bi, b := range g.Blocks {
		for i := range b.Data {
			b.Data[i] = float32(bi*1000 + i%97)
		}
	}
	var err error
	mpi.NewWorld(1).Run(func(comm *mpi.Comm) {
		err = Write(comm, path, g, [3]int{1, 1, 1}, 5, 0.25)
	})
	if err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// container lays out magic | header length | JSON header | payload with
// the rank offsets placed after the header, unpadded (Decode accepts any
// header length).
func container(tb testing.TB, magic string, hdr any, payload []byte, offsets func(base int64)) []byte {
	tb.Helper()
	// The offset digits change the header length: iterate to a fixed point.
	base := int64(0)
	for {
		offsets(base)
		body, err := json.Marshal(hdr)
		if err != nil {
			tb.Fatal(err)
		}
		if next := int64(len(magic) + 4 + len(body)); next != base {
			base = next
			continue
		}
		var out bytes.Buffer
		out.WriteString(magic)
		binary.Write(&out, binary.LittleEndian, uint32(len(body)))
		out.Write(body)
		out.Write(payload)
		return out.Bytes()
	}
}

// seeds returns the named fuzz seeds: the valid checkpoint, each hostile
// variant of its header and streams, and two files in the retired MPCFCkp1
// format whose headers once panicked the reader.
func seeds(tb testing.TB) map[string][]byte {
	valid := validImage(tb)
	hdr, ranks, err := dump.Decode(valid)
	if err != nil {
		tb.Fatal(err)
	}
	streams := ranks[0].Streams
	// mutate rebuilds the valid checkpoint after edit changes its header
	// entry and streams.
	mutate := func(edit func(h *dump.Header, streams [][]byte) [][]byte) []byte {
		h := hdr
		h.Ranks = []dump.RankEntry{hdr.Ranks[0]}
		h.Ranks[0].BlockIDs = append([]int64(nil), hdr.Ranks[0].BlockIDs...)
		ss := edit(&h, append([][]byte(nil), streams...))
		var payload []byte
		h.Ranks[0].Streams = nil
		for _, s := range ss {
			h.Ranks[0].Streams = append(h.Ranks[0].Streams, len(s))
			payload = append(payload, s...)
		}
		if h.Ranks[0].Size == hdr.Ranks[0].Size {
			h.Ranks[0].Size = int64(len(payload))
		}
		return container(tb, dump.Magic, &h, payload, func(base int64) { h.Ranks[0].Offset = base })
	}
	deflate := func(n int) []byte {
		var out bytes.Buffer
		zw := zlib.NewWriter(&out)
		zw.Write(make([]byte, n))
		zw.Close()
		return out.Bytes()
	}
	blockBytes := 4 * len(grid.New(fuzzDesc).Blocks[0].Data)
	legacy := func(offsets, sizes []int64) []byte {
		h := map[string]any{
			"version": 2, "block_size": fuzzDesc.N, "rank_dims": [3]int{1, 1, 1},
			"global_blocks": [3]int{2, 1, 1}, "blocks": [][]int64{{0, 1}},
			"step": 5, "time": 0.25, "offsets": offsets, "sizes": sizes,
		}
		payload := deflate(2 * blockBytes)
		return container(tb, "MPCFCkp1", h, payload, func(base int64) {
			for i := range offsets {
				offsets[i] = base
			}
		})
	}
	return map[string][]byte{
		"valid": valid,
		"negative-size": mutate(func(h *dump.Header, s [][]byte) [][]byte {
			h.Ranks[0].Size = -5
			return s
		}),
		"oversized-size": mutate(func(h *dump.Header, s [][]byte) [][]byte {
			h.Ranks[0].Size = 1 << 40
			return s
		}),
		"stream-count": mutate(func(h *dump.Header, s [][]byte) [][]byte {
			return [][]byte{slices.Concat(s[0], s[1])}
		}),
		"id-out-of-box": mutate(func(h *dump.Header, s [][]byte) [][]byte {
			// Every block is present, plus one outside the box.
			h.Ranks[0].Blocks++
			h.Ranks[0].BlockIDs = append(h.Ranks[0].BlockIDs, 99)
			return append(s, s[1])
		}),
		"id-duplicated": mutate(func(h *dump.Header, s [][]byte) [][]byte {
			// Every block is present, one of them twice.
			h.Ranks[0].Blocks++
			h.Ranks[0].BlockIDs = append(h.Ranks[0].BlockIDs, h.Ranks[0].BlockIDs[1])
			return append(s, s[1])
		}),
		"zlib-truncated": mutate(func(h *dump.Header, s [][]byte) [][]byte {
			s[1] = s[1][:len(s[1])/2]
			return s
		}),
		"zlib-oversized": mutate(func(h *dump.Header, s [][]byte) [][]byte {
			s[1] = deflate(blockBytes + 64)
			return s
		}),
		"wrong-quantity": mutate(func(h *dump.Header, s [][]byte) [][]byte {
			h.Quantity = "p"
			return s
		}),
		"legacy-negative-size": legacy([]int64{0}, []int64{-1}),
		"legacy-short-table":   legacy([]int64{0}, []int64{}),
	}
}

// FuzzCheckpointRestore feeds arbitrary bytes through the checkpoint reader.
// Corrupt or hostile files must fail with an error, never a panic or an
// outsized allocation.
func FuzzCheckpointRestore(f *testing.F) {
	f.Add(validImage(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		g := grid.New(fuzzDesc)
		if _, _, err := restore(data, g); err != nil {
			return // corrupt input is allowed to fail, not to panic
		}
	})
}

// TestCheckpointSeedCorpus pins the checked-in corpus under
// testdata/fuzz/FuzzCheckpointRestore and each seed's verdict: the valid
// checkpoint restores, every other seed is refused with an error. To
// regenerate the corpus, delete that directory and run this test.
func TestCheckpointSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzCheckpointRestore")
	_, err := os.Stat(dir)
	write := os.IsNotExist(err)
	if write {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range seeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		path := filepath.Join(dir, name)
		if write {
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		} else if got, err := os.ReadFile(path); err != nil || string(got) != body {
			t.Errorf("seed %s missing or stale (delete %s and rerun to regenerate): %v", path, dir, err)
		}
		step, _, err := restore(data, grid.New(fuzzDesc))
		if name == "valid" && (err != nil || step != 5) {
			t.Errorf("valid seed: step %d, err %v", step, err)
		}
		if name != "valid" && err == nil {
			t.Errorf("seed %s restored, want an error", name)
		}
	}
}
