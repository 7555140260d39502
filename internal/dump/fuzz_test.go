package dump

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cubism/internal/compress"
)

// validFrameImage builds a well-formed two-rank frame image (the same
// bytes WriteCollective puts on disk and StreamCollective assembles) so
// the fuzzer starts from the success path.
func validFrameImage(tb testing.TB, encoder string) []byte {
	tb.Helper()
	enc, err := compress.NewEncoder(encoder)
	if err != nil {
		tb.Fatal(err)
	}
	// One 8³ block per rank: ordinal record + 512 float32 coefficients.
	raw := make([]byte, 4+8*8*8*4)
	for i := range raw[4:] {
		raw[4+i] = byte(i * 7)
	}
	var payloads [][]byte
	entries := make([]RankEntry, 2)
	for r := range entries {
		raw[0] = 0 // block ordinal 0 within the rank payload
		stream, err := enc.Encode(nil, raw)
		if err != nil {
			tb.Fatal(err)
		}
		payloads = append(payloads, stream)
		entries[r] = RankEntry{Size: int64(len(stream)), Blocks: 1, Streams: []int{len(stream)}}
	}
	hdr := Header{
		Quantity: "p", Encoder: encoder, Epsilon: 1e-3, BlockSize: 8,
		RankDims: [3]int{2, 1, 1}, BlockDims: [3]int{1, 1, 1}, Step: 1, Time: 1e-4,
	}
	data, err := buildHeader(&hdr, entries)
	if err != nil {
		tb.Fatal(err)
	}
	for _, p := range payloads {
		data = append(data, p...)
	}
	return data
}

// FuzzFrameStreamDecode feeds arbitrary bytes through the frame decoder
// (Decode parses both on-disk dump files and streamed frames — the bytes
// are identical). Corrupt or adversarial frames must surface as errors,
// never as panics, outsized allocations, or out-of-range slices; valid
// frames must keep decoding after the fuzzer mutates them back into shape.
func FuzzFrameStreamDecode(f *testing.F) {
	for _, encoder := range []string{"rle", "huff"} {
		img := validFrameImage(f, encoder)
		f.Add(img)
		f.Add(img[:len(img)/2])     // truncated payload
		f.Add(img[:len(Magic)+4+8]) // truncated header
	}
	f.Add([]byte(Magic))
	f.Add([]byte("MPCFDmp1\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, comps, err := Decode(data)
		if err != nil {
			return // corrupt input is allowed to fail, not to panic
		}
		if len(comps) != len(hdr.Ranks) {
			t.Fatalf("decoded %d rank payloads, header lists %d", len(comps), len(hdr.Ranks))
		}
		for r, c := range comps {
			// Every accepted stream slice must lie inside the input.
			for _, s := range c.Streams {
				if len(s) > len(data) {
					t.Fatalf("rank %d stream of %d bytes exceeds the %d-byte input", r, len(s), len(data))
				}
			}
			// Decompression of an accepted frame may fail on garbage
			// coefficients, but must not panic.
			if fields, err := c.Decompress(); err == nil && len(fields) != c.Blocks {
				t.Fatalf("rank %d decompressed to %d blocks, want %d", r, len(fields), c.Blocks)
			}
		}
	})
}

// TestWriteFrameSeedCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/FuzzFrameStreamDecode (run with WRITE_FRAME_SEEDS=1); by
// default it only verifies the checked-in seeds still decode, so corpus
// and coder never drift apart silently.
func TestWriteFrameSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzFrameStreamDecode")
	for _, encoder := range []string{"rle", "huff"} {
		img := validFrameImage(t, encoder)
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", img)
		path := filepath.Join(dir, "seed-"+encoder)
		if os.Getenv("WRITE_FRAME_SEEDS") != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("seed corpus missing (regenerate with WRITE_FRAME_SEEDS=1): %v", err)
		}
		if string(got) != body {
			t.Fatalf("seed %s stale: the frame layout or %s coder changed — regenerate with WRITE_FRAME_SEEDS=1", path, encoder)
		}
	}
}

// TestValidFrameImageDecodes pins the fuzz seed itself: the hand-assembled
// frame image must decode and decompress cleanly, or the fuzzer would
// start from a corpus that never exercises the success path.
func TestValidFrameImageDecodes(t *testing.T) {
	for _, encoder := range []string{"rle", "huff"} {
		img := validFrameImage(t, encoder)
		hdr, comps, err := Decode(img)
		if err != nil {
			t.Fatalf("%s: %v", encoder, err)
		}
		if hdr.Encoder != encoder || len(comps) != 2 {
			t.Fatalf("%s: decoded header %+v with %d ranks", encoder, hdr, len(comps))
		}
		for r, c := range comps {
			fields, err := c.Decompress()
			if err != nil {
				t.Fatalf("%s rank %d: %v", encoder, r, err)
			}
			if len(fields) != 1 || len(fields[0]) != 8*8*8 {
				t.Fatalf("%s rank %d: wrong shape", encoder, r)
			}
		}
		// The image is self-consistent: re-decoding a copy is identical.
		if !bytes.Equal(img, append([]byte(nil), img...)) {
			t.Fatal("unreachable")
		}
	}
}
