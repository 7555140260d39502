package compress

import (
	"bytes"
	"math"
	"testing"
)

// FuzzEntropyRoundTrip checks the lossless coders' contract on arbitrary
// byte payloads: Encode then Decode reproduces the input exactly, and
// encoding the same payload twice produces the same bytes — the
// determinism the parallel ENC pipeline's bitwise guarantee rests on.
func FuzzEntropyRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0}, uint8(3))
	f.Add(bytes.Repeat([]byte{0}, 300), uint8(1))                     // long zero run (rle)
	f.Add(bytes.Repeat([]byte{0xAB}, 64), uint8(3))                   // single-symbol alphabet (huff)
	f.Add([]byte("abacabadabacabae"), uint8(3))                       // skewed alphabet
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0}, uint8(2)) // sparse words (sig)
	f.Add([]byte{0xff, 0x00, 0x7f, 0x80, 0x01, 0xfe, 0x55, 0xaa}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, encSel uint8) {
		name := []string{"zlib", "rle", "sig", "huff"}[int(encSel)%4]
		enc, err := NewEncoder(name)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := enc.Encode(nil, data)
		if err != nil {
			t.Fatalf("%s: encoding %d bytes: %v", name, len(data), err)
		}
		got, err := enc.Decode(nil, stream)
		if err != nil {
			t.Fatalf("%s: decoding own encoding: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: round trip of %d bytes returned %d different bytes", name, len(data), len(got))
		}
		again, err := enc.Encode(nil, data)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stream, again) {
			t.Fatalf("%s: encoding is not deterministic across calls", name)
		}
	})
}

// fieldFromBytes builds an n³ coefficient block from arbitrary fuzz bytes:
// four bytes per coefficient, cycled when data is short, with non-finite
// values sanitized to zero (the coder's contract covers finite fields; the
// pipeline never produces NaN/Inf coefficients).
func fieldFromBytes(data []byte, n int) []float32 {
	field := make([]float32, n*n*n)
	if len(data) == 0 {
		return field
	}
	for i := range field {
		var bits uint32
		for b := 0; b < 4; b++ {
			bits |= uint32(data[(i*4+b)%len(data)]) << (8 * uint(b))
		}
		v := math.Float32frombits(bits)
		if v != v || math.IsInf(float64(v), 0) {
			v = 0
		}
		field[i] = v
	}
	return field
}

// FuzzZerotreeRoundTrip checks the embedded coder's contract on arbitrary
// finite fields: encode-decode must succeed and reconstruct every
// coefficient to within 2x the threshold (plus float32 quantization of the
// refinement estimate, which matters once magnitudes dwarf the threshold).
func FuzzZerotreeRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(8))
	f.Add([]byte{0x00, 0x00, 0x80, 0x3f}, uint8(1), uint8(16)) // 1.0 everywhere
	f.Add([]byte{0xff, 0xff, 0x7f, 0x7f, 0x01, 0x00}, uint8(2), uint8(0))
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07}, uint8(1), uint8(23))
	f.Fuzz(func(t *testing.T, data []byte, nSel, thrExp uint8) {
		n := []int{4, 8, 16}[int(nSel)%3]
		threshold := math.Pow(2, float64(int(thrExp%24)-16))
		field := fieldFromBytes(data, n)

		stream := ZerotreeEncode(append([]float32(nil), field...), n, threshold)
		got, err := ZerotreeDecode(stream, n, threshold)
		if err != nil {
			t.Fatalf("decode of own encoding failed (n=%d thr=%g): %v", n, threshold, err)
		}
		if len(got) != len(field) {
			t.Fatalf("decoded %d coefficients, want %d", len(got), len(field))
		}
		for i := range field {
			// 2^-20 relative slack: ~8 float32 ulps, covering rounding of
			// the float64 magnitude estimate back to float32.
			tol := 2*threshold + math.Abs(float64(field[i]))*math.Pow(2, -20)
			d := math.Abs(float64(got[i]) - float64(field[i]))
			if !(d <= tol) {
				t.Fatalf("coefficient %d: got %g want %g (err %g > tol %g, n=%d thr=%g)",
					i, got[i], field[i], d, tol, n, threshold)
			}
		}
	})
}

// FuzzDecompressCorrupt feeds arbitrary bytes through every decode path —
// the four lossless encoders, the record-framed Decompress, and the
// zerotree decoder. Corrupt input must surface as an error, never a panic
// or a runaway allocation.
func FuzzDecompressCorrupt(f *testing.F) {
	encoders := []string{"zlib", "rle", "sig", "huff"}
	// Seed with a valid single-block stream per encoder (block 0, all-zero
	// coefficients, n=8) so the fuzzer starts from the success path, plus a
	// truncation of each.
	raw := make([]byte, 4+8*8*8*4)
	for i, name := range encoders {
		enc, err := NewEncoder(name)
		if err != nil {
			f.Fatal(err)
		}
		stream, err := enc.Encode(nil, raw)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(stream, uint8(i), uint8(0), uint8(1))
		f.Add(stream[:len(stream)/2], uint8(i), uint8(0), uint8(1))
	}
	f.Add([]byte{0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint8(1), uint8(3), uint8(2))
	f.Add([]byte{0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint8(2), uint8(200), uint8(0))
	f.Fuzz(func(t *testing.T, stream []byte, encSel, nSel, blocks uint8) {
		name := encoders[int(encSel)%len(encoders)]

		// Raw encoder decode: error or success, never a panic.
		enc, err := NewEncoder(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := enc.Decode(nil, stream); err != nil {
			_ = err // corrupt input is allowed to fail
		}

		// Framed pipeline with a well-formed header.
		n := []int{8, 16, 32}[int(nSel)%3]
		c := &Compressed{
			N: n, Blocks: int(blocks % 8),
			Encoder: name, Streams: [][]byte{stream},
		}
		if fields, err := c.Decompress(); err == nil {
			if len(fields) != c.Blocks {
				t.Fatalf("Decompress returned %d blocks, want %d", len(fields), c.Blocks)
			}
			for i, fd := range fields {
				if len(fd) != n*n*n {
					t.Fatalf("block %d has %d cells, want %d", i, len(fd), n*n*n)
				}
			}
		}

		// Framed pipeline with an arbitrary (possibly invalid) header: the
		// edge/count validation must reject junk instead of panicking in
		// the wavelet transform.
		bad := &Compressed{
			N: int(nSel), Blocks: int(blocks),
			Encoder: name, Streams: [][]byte{stream},
		}
		if _, err := bad.Decompress(); err != nil {
			_ = err
		}

		// Embedded zerotree decoder on raw bytes: truncation ends the
		// refinement early by design, so only hard errors are acceptable.
		if _, err := ZerotreeDecode(stream, n, 1e-3); err != nil {
			_ = err
		}
	})
}
