package compress

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cubism/internal/grid"
	"cubism/internal/physics"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden compression corpus under testdata/golden")

// goldenGrid builds the corpus input: a 2×2×2 grid of 8³ blocks whose Γ
// channel holds small LCG-generated integers. Integer-valued inputs keep
// the forward-transform arithmetic low-rounding and bit-for-bit
// reproducible across machines (every operand is an exact dyadic value,
// so there is no libm call or FMA-contraction-sensitive cancellation to
// drift), unlike a math.Sin-filled field.
func goldenGrid() *grid.Grid {
	const n, nb = 8, 2
	g := grid.New(grid.Desc{N: n, NBX: nb, NBY: nb, NBZ: nb, H: 1.0 / float64(n*nb)})
	state := uint32(0x2545F491)
	for _, b := range g.Blocks {
		for i := 0; i < n*n*n; i++ {
			state = state*1664525 + 1013904223    // Numerical Recipes LCG
			v := float32(int32(state>>20) - 2048) // integers in [-2048, 2048)
			cell := b.Data[i*physics.NQ : (i+1)*physics.NQ]
			cell[physics.QG] = v
		}
	}
	return g
}

// goldenCases sweeps the deterministic coders across the rate targets the
// corpus pins: lossless (eps 0) and the paper's two dump thresholds.
var goldenCases = []struct {
	encoder string
	eps     float64
}{
	{"rle", 0}, {"rle", 1e-2}, {"rle", 1e-3},
	{"sig", 0}, {"sig", 1e-2}, {"sig", 1e-3},
	{"huff", 0}, {"huff", 1e-2}, {"huff", 1e-3},
}

// goldenBlob flattens a compression result into the committed blob shape:
// for each block stream, a uint32 length followed by the bytes.
func goldenBlob(c *Compressed) []byte {
	var out []byte
	var lenBuf [4]byte
	for _, s := range c.Streams {
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(s)))
		out = append(out, lenBuf[:]...)
		out = append(out, s...)
	}
	return out
}

func goldenName(encoder string, eps float64) string {
	tag := strings.ReplaceAll(fmt.Sprintf("%g", eps), "-", "m")
	return fmt.Sprintf("%s_eps%s.bin", encoder, tag)
}

// TestGoldenCorpus is the cross-machine determinism contract of the ENC
// stage: both encoder paths — serial and the parallel pool — must
// reproduce the committed compressed blobs bitwise at every rate target,
// and every blob must decode. The bitwise contract is on the compressed
// bytes; the decoded floats at eps 0 are lossless up to float32 rounding
// in the multi-level lifting steps (a few ulps), which the eps 0 branch
// bounds tightly. Regenerate with
// `go test ./internal/compress -run TestGoldenCorpus -update` after an
// intentional format change, and commit the diff.
func TestGoldenCorpus(t *testing.T) {
	g := goldenGrid()
	const scale = 2048 // fixed absolute threshold scale: eps*scale stays a power-of-two-ish exact bound
	for _, tc := range goldenCases {
		t.Run(goldenName(tc.encoder, tc.eps), func(t *testing.T) {
			serial, _, err := Compress(g, Gamma, Options{
				Epsilon: tc.eps, Scale: scale, Encoder: tc.encoder, Workers: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			par, _, err := Compress(g, Gamma, Options{
				Epsilon: tc.eps, Scale: scale, Encoder: tc.encoder,
				Workers: 4, Parallel: poolRunner(4),
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(par.Streams) != len(serial.Streams) {
				t.Fatalf("parallel produced %d streams, serial %d", len(par.Streams), len(serial.Streams))
			}
			for i := range par.Streams {
				if !bytes.Equal(par.Streams[i], serial.Streams[i]) {
					t.Fatalf("block %d: parallel stream differs from serial", i)
				}
			}

			blob := goldenBlob(serial)
			path := filepath.Join("testdata", "golden", goldenName(tc.encoder, tc.eps))
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, blob, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden blob missing (regenerate with -update): %v", err)
			}
			if !bytes.Equal(blob, want) {
				t.Fatalf("%s: compressed bytes diverged from the committed corpus (%d vs %d bytes) — the coder or pipeline changed; if intentional, regenerate with -update",
					path, len(blob), len(want))
			}

			// Every committed blob must decode; at eps 0 zero-threshold
			// decimation drops nothing, so the only reconstruction error
			// left is float32 rounding inside the forward/inverse lifting
			// cascade — a handful of ulps.
			fields, err := par.Decompress()
			if err != nil {
				t.Fatal(err)
			}
			if len(fields) != len(g.Blocks) {
				t.Fatalf("decoded %d blocks, want %d", len(fields), len(g.Blocks))
			}
			for bi, b := range g.Blocks {
				for i := range fields[bi] {
					want := b.Data[i*physics.NQ+physics.QG]
					got := fields[bi][i]
					d := float64(got) - float64(want)
					if d < 0 {
						d = -d
					}
					if tc.eps == 0 {
						// Lossless up to float32 rounding in the lifting
						// cascade: 2^-18 relative (~64 ulps) plus a small
						// absolute floor for near-zero cells.
						tol := math.Abs(float64(want))*math.Pow(2, -18) + 1e-4
						if d > tol {
							t.Fatalf("block %d cell %d: lossless round trip %g vs %g (err %g > tol %g)",
								bi, i, got, want, d, tol)
						}
						continue
					}
					// The wavelet decimation error bound: a factor over
					// eps*scale covering accumulation across levels.
					if d > 8*tc.eps*scale {
						t.Fatalf("block %d cell %d: error %g exceeds bound %g", bi, i, d, 8*tc.eps*scale)
					}
				}
			}
		})
	}
}

// TestGoldenZerotree pins the embedded zerotree coder the same way: its
// stream for the corpus field is committed and must stay bitwise stable.
func TestGoldenZerotree(t *testing.T) {
	g := goldenGrid()
	field := make([]float32, 8*8*8)
	Gamma.Extract(g.Blocks[0], field)
	stream := ZerotreeEncode(append([]float32(nil), field...), 8, 1.0)
	path := filepath.Join("testdata", "golden", "zerotree_thr1.bin")
	if *updateGolden {
		if err := os.WriteFile(path, stream, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden blob missing (regenerate with -update): %v", err)
	}
	if !bytes.Equal(stream, want) {
		t.Fatalf("zerotree stream diverged from the committed corpus (%d vs %d bytes) — regenerate with -update if intentional",
			len(stream), len(want))
	}
	if _, err := ZerotreeDecode(stream, 8, 1.0); err != nil {
		t.Fatalf("committed zerotree stream does not decode: %v", err)
	}
}
