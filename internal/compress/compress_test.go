package compress

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"cubism/internal/grid"
	"cubism/internal/physics"
)

func testGrid(n, nb int, f func(x, y, z float64) physics.Prim) *grid.Grid {
	g := grid.New(grid.Desc{N: n, NBX: nb, NBY: nb, NBZ: nb, H: 1.0 / float64(n*nb)})
	for _, b := range g.Blocks {
		for iz := 0; iz < n; iz++ {
			for iy := 0; iy < n; iy++ {
				for ix := 0; ix < n; ix++ {
					x, y, z := g.CellCenter(b.X*n+ix, b.Y*n+iy, b.Z*n+iz)
					c := f(x, y, z).ToCons()
					cell := b.At(ix, iy, iz)
					cell[physics.QR] = float32(c.R)
					cell[physics.QU] = float32(c.RU)
					cell[physics.QV] = float32(c.RV)
					cell[physics.QW] = float32(c.RW)
					cell[physics.QE] = float32(c.E)
					cell[physics.QG] = float32(c.G)
					cell[physics.QP] = float32(c.Pi)
				}
			}
		}
	}
	return g
}

func smoothPrim(x, y, z float64) physics.Prim {
	return physics.Prim{
		Rho: 1000,
		P:   1e7 * (1 + 0.1*math.Sin(2*math.Pi*x)*math.Cos(2*math.Pi*y)),
		G:   physics.Liquid.G(),
		Pi:  physics.Liquid.P(),
	}
}

func TestEncodersRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, name := range []string{"zlib", "rle", "sig", "huff"} {
		enc, err := NewEncoder(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{0, 1, 100, 10000} {
			src := make([]byte, size)
			for i := range src {
				if rng.Intn(3) == 0 {
					src[i] = byte(rng.Intn(256))
				} // else leave zero: sparse like decimated data
			}
			c, err := enc.Encode(nil, src)
			if err != nil {
				t.Fatalf("%s encode: %v", name, err)
			}
			d, err := enc.Decode(nil, c)
			if err != nil {
				t.Fatalf("%s decode: %v", name, err)
			}
			if !bytes.Equal(d, src) {
				t.Fatalf("%s roundtrip mismatch at size %d", name, size)
			}
		}
	}
}

// TestZlibEncodeAllocs pins the reuse of the zlib coder: once warm, an
// encode allocates only its growing output (5 allocations here), never a
// deflater (some 700 KB of match tables). A deflater per call shows as 27.
func TestZlibEncodeAllocs(t *testing.T) {
	const n = 8
	rec := make([]byte, 4+4*n*n*n)
	for i := range rec {
		rec[i] = byte(i * i / 7)
	}
	enc, err := NewEncoder("zlib")
	if err != nil {
		t.Fatal(err)
	}
	encode := func() {
		if _, err := enc.Encode(nil, rec); err != nil {
			t.Fatal(err)
		}
	}
	encode() // builds the deflater
	if got := testing.AllocsPerRun(20, encode); got > 8 {
		t.Errorf("Zlib.Encode of an %d³ record: %.0f allocs per call, want at most 8", n, got)
	}
}

func TestRLEPropertyRoundTrip(t *testing.T) {
	enc := RLE{}
	f := func(src []byte) bool {
		c, err := enc.Encode(nil, src)
		if err != nil {
			return false
		}
		d, err := enc.Decode(nil, c)
		if err != nil {
			return false
		}
		return bytes.Equal(d, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCompressDecompressErrorBound(t *testing.T) {
	g := testGrid(16, 2, smoothPrim)
	const eps = 1e-3
	for _, encName := range []string{"zlib", "rle", "sig"} {
		c, stats, err := Compress(g, Pressure, Options{Epsilon: eps, Encoder: encName, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Rate() < 2 {
			t.Errorf("%s: smooth field compresses only %.2f:1", encName, stats.Rate())
		}
		fields, err := c.Decompress()
		if err != nil {
			t.Fatal(err)
		}
		n := g.N
		buf := make([]float32, n*n*n)
		for bi, b := range g.Blocks {
			Pressure.Extract(b, buf)
			// Relative threshold scale is the block max (~1e7).
			var scale float64
			for _, v := range buf {
				if a := math.Abs(float64(v)); a > scale {
					scale = a
				}
			}
			for i := range buf {
				e := math.Abs(float64(fields[bi][i] - buf[i]))
				if e > 25*eps*scale {
					t.Fatalf("%s block %d: reconstruction error %g > bound %g", encName, bi, e, 25*eps*scale)
				}
			}
		}
	}
}

func TestCompressionRateOrdering(t *testing.T) {
	// Γ is piecewise constant in a two-phase field and must compress far
	// better than the oscillatory pressure (paper §7: 100-150:1 vs 10-20:1).
	g := testGrid(16, 2, func(x, y, z float64) physics.Prim {
		pr := smoothPrim(x, y, z)
		pr.P *= 1 + 0.2*math.Sin(13*x+17*y+19*z) // rough pressure
		return pr
	})
	_, pStats, err := Compress(g, Pressure, Options{Epsilon: 1e-2, Encoder: "zlib", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, gStats, err := Compress(g, Gamma, Options{Epsilon: 1e-3, Encoder: "zlib", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if gStats.Rate() <= pStats.Rate() {
		t.Errorf("Gamma rate %.1f:1 not better than pressure rate %.1f:1", gStats.Rate(), pStats.Rate())
	}
}

func TestCompressLossless(t *testing.T) {
	// Epsilon 0 keeps every coefficient: reconstruction must be within
	// float32 transform roundoff of the original.
	g := testGrid(8, 1, smoothPrim)
	c, stats, err := Compress(g, Density, Options{Epsilon: 0, Encoder: "zlib"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Kept != stats.Total {
		t.Errorf("eps=0 kept %d of %d coefficients", stats.Kept, stats.Total)
	}
	fields, err := c.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	n := g.N
	buf := make([]float32, n*n*n)
	Density.Extract(g.Blocks[0], buf)
	for i := range buf {
		if math.Abs(float64(fields[0][i]-buf[i])) > 1e-3 {
			t.Fatalf("lossless reconstruction differs at %d: %g vs %g", i, fields[0][i], buf[i])
		}
	}
}

// poolRunner runs the parallel-for body on w real goroutines pulling block
// indexes from a shared channel — a stand-in for the node engine pool with
// a deliberately nondeterministic schedule.
func poolRunner(workers int) func(region string, n int, body func(w, i int)) {
	return func(region string, n int, body func(w, i int)) {
		ch := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range ch {
					body(w, i)
				}
			}(w)
		}
		for i := 0; i < n; i++ {
			ch <- i
		}
		close(ch)
		wg.Wait()
	}
}

// TestParallelSerialBitwise is the determinism keystone of the parallel ENC
// stage: for every encoder, the per-block streams produced by a serial pass
// and by a multi-worker pool with a racing schedule must be bitwise
// identical.
func TestParallelSerialBitwise(t *testing.T) {
	g := testGrid(8, 3, smoothPrim)
	for _, name := range []string{"zlib", "rle", "sig", "huff"} {
		for _, eps := range []float64{0, 1e-3} {
			serial, _, err := Compress(g, Pressure, Options{Epsilon: eps, Encoder: name})
			if err != nil {
				t.Fatalf("%s serial: %v", name, err)
			}
			for _, workers := range []int{2, 4, 7} {
				par, stats, err := Compress(g, Pressure, Options{
					Epsilon: eps, Encoder: name, Workers: workers, Parallel: poolRunner(workers),
				})
				if err != nil {
					t.Fatalf("%s parallel: %v", name, err)
				}
				if len(par.Streams) != len(serial.Streams) {
					t.Fatalf("%s: stream count %d vs %d", name, len(par.Streams), len(serial.Streams))
				}
				for i := range par.Streams {
					if !bytes.Equal(par.Streams[i], serial.Streams[i]) {
						t.Fatalf("%s eps=%g workers=%d: block %d stream differs from serial", name, eps, workers, i)
					}
				}
				if len(stats.EncTimes) != workers {
					t.Fatalf("%s: EncTimes has %d slots, want %d", name, len(stats.EncTimes), workers)
				}
			}
		}
	}
}

func TestImbalanceStatistic(t *testing.T) {
	ts := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond}
	got := Imbalance(ts)
	want := (0.3 - 0.1) / 0.2
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Imbalance = %g, want %g", got, want)
	}
	if Imbalance(nil) != 0 || Imbalance(ts[:1]) != 0 {
		t.Error("degenerate imbalance should be 0")
	}
}

func TestHuffPropertyRoundTrip(t *testing.T) {
	enc := Huff{}
	f := func(src []byte) bool {
		c, err := enc.Encode(nil, src)
		if err != nil {
			return false
		}
		d, err := enc.Decode(nil, c)
		if err != nil {
			return false
		}
		return bytes.Equal(d, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHuffDeterministicAcrossCalls(t *testing.T) {
	// The golden corpus pins huff output bitwise, so encoding must be a
	// pure function of the input — including tie-breaks in tree building.
	src := []byte("aabbbcccc\x00\x00\x00\x00\x00dddddddd")
	a, err := Huff{}.Encode(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Huff{}.Encode(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("huff encoding not deterministic")
	}
}

func TestSigPropertyRoundTrip(t *testing.T) {
	enc := Sig{}
	f := func(src []byte) bool {
		c, err := enc.Encode(nil, src)
		if err != nil {
			return false
		}
		d, err := enc.Decode(nil, c)
		if err != nil {
			return false
		}
		return bytes.Equal(d, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSigCompressesSparseData(t *testing.T) {
	// 90% zero words must compress close to the information content.
	src := make([]byte, 4000)
	for w := 0; w < 1000; w += 10 {
		src[4*w] = byte(w)
		src[4*w+1] = 1
	}
	c, err := Sig{}.Encode(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	// 100 nonzero words x 4B + 125B bitmap + header ~ 530B.
	if len(c) > 700 {
		t.Errorf("sig encoded %d bytes, want < 700", len(c))
	}
}

func TestDecompressRejectsCorruptStream(t *testing.T) {
	g := testGrid(8, 1, smoothPrim)
	c, _, err := Compress(g, Pressure, Options{Epsilon: 1e-3, Encoder: "zlib"})
	if err != nil {
		t.Fatal(err)
	}
	// Flip bytes in the zlib stream body.
	for i := 10; i < len(c.Streams[0]) && i < 40; i++ {
		c.Streams[0][i] ^= 0xff
	}
	if _, err := c.Decompress(); err == nil {
		t.Error("expected error for corrupt zlib stream")
	}
}

func TestDecompressRejectsBadOrdinal(t *testing.T) {
	g := testGrid(8, 1, smoothPrim)
	c, _, err := Compress(g, Pressure, Options{Epsilon: 0, Encoder: "sig"})
	if err != nil {
		t.Fatal(err)
	}
	// Decode, corrupt the block ordinal, re-encode.
	enc, _ := NewEncoder("sig")
	raw, err := enc.Decode(nil, c.Streams[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[0], raw[1], raw[2], raw[3] = 0xff, 0xff, 0xff, 0x7f
	c.Streams[0], err = enc.Encode(nil, raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decompress(); err == nil {
		t.Error("expected error for out-of-range block ordinal")
	}
}

func TestUnknownEncoderRejected(t *testing.T) {
	if _, err := NewEncoder("lz4"); err == nil {
		t.Error("expected error for unknown encoder")
	}
	if _, _, err := Compress(testGrid(8, 1, smoothPrim), Pressure, Options{Encoder: "nope"}); err == nil {
		t.Error("Compress accepted unknown encoder")
	}
}
