package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"cubism/internal/grid"
	"cubism/internal/physics"
	"cubism/internal/telemetry"
	"cubism/internal/wavelet"
)

// Quantity selects which scalar field is extracted from the flow state for
// a dump. The paper dumps only p and Γ, "the main quantities of interest
// for the study and visualization of the cloud collapse dynamics".
type Quantity int

// Supported dump quantities.
const (
	Pressure Quantity = iota
	Gamma
	Density
)

// String implements fmt.Stringer.
func (q Quantity) String() string {
	return [...]string{"p", "G", "rho"}[q]
}

// Extract fills dst (N³ float32, x-fastest) with the quantity's value for
// every cell of the block.
func (q Quantity) Extract(b *grid.Block, dst []float32) {
	n := b.N
	for i := 0; i < n*n*n; i++ {
		c := b.Data[i*physics.NQ : (i+1)*physics.NQ]
		switch q {
		case Gamma:
			dst[i] = c[physics.QG]
		case Density:
			dst[i] = c[physics.QR]
		default: // Pressure via the stiffened equation of state.
			r := float64(c[physics.QR])
			ru, rv, rw := float64(c[physics.QU]), float64(c[physics.QV]), float64(c[physics.QW])
			ke := 0.5 * (ru*ru + rv*rv + rw*rw) / r
			dst[i] = float32(physics.Pressure(float64(c[physics.QE]), ke, float64(c[physics.QG]), float64(c[physics.QP])))
		}
	}
}

// Options configures a compression pass.
type Options struct {
	// Epsilon is the decimation threshold: detail coefficients with
	// magnitude <= Epsilon*Scale are zeroed. The paper uses 1e-2 for p and
	// 1e-3 for Γ (relative thresholds; Scale carries the field magnitude).
	Epsilon float64
	// Scale converts Epsilon to an absolute threshold; 0 means the max
	// absolute value of each block (a per-block relative threshold).
	Scale float64
	// Encoder selects the lossless back-end ("zlib", "rle", "sig" or
	// "huff").
	Encoder string
	// Workers is the number of worker slots: the width of the per-worker
	// timing arrays and of the scratch pool. When Parallel is set it must
	// be at least the pool's worker count; 0 means one.
	Workers int
	// Parallel (optional) runs body(w, i) for every i in [0, n) across a
	// persistent worker pool, with worker ids w < Workers. The per-block
	// tasks are independent and slot their output by block index, so any
	// schedule produces the same bytes. nil runs the blocks serially on
	// worker 0 — bitwise identical to every parallel schedule.
	Parallel func(region string, n int, body func(w, i int))
	// Tracer (optional) records per-worker fwt_decimate/encode spans on
	// Rank's trace tracks.
	Tracer *telemetry.Tracer
	// Rank is the trace process id used with Tracer.
	Rank int
}

// Stats reports the outcome and per-stage work distribution of a pass.
type Stats struct {
	Blocks   int
	RawBytes int64           // uncompressed payload size
	Encoded  int64           // compressed payload size
	Kept     int64           // significant coefficients after decimation
	Total    int64           // total coefficients
	DecTimes []time.Duration // per-worker wavelet transform + decimation
	EncTimes []time.Duration // per-worker lossless encoding
}

// Rate returns the compression rate (raw : encoded).
func (s Stats) Rate() float64 {
	if s.Encoded == 0 {
		return 0
	}
	return float64(s.RawBytes) / float64(s.Encoded)
}

// Imbalance returns (tmax-tmin)/tavg across the per-worker durations, the
// statistic of Table 4.
func Imbalance(ts []time.Duration) float64 {
	if len(ts) < 2 {
		return 0
	}
	minT, maxT, sum := ts[0], ts[0], time.Duration(0)
	for _, t := range ts {
		if t < minT {
			minT = t
		}
		if t > maxT {
			maxT = t
		}
		sum += t
	}
	avg := sum.Seconds() / float64(len(ts))
	if avg == 0 {
		return 0
	}
	return (maxT.Seconds() - minT.Seconds()) / avg
}

// Compressed is one quantity's compressed payload: one encoded stream per
// block, in block order, self-describing enough to invert. (Decompress also
// accepts the pre-PR-10 layout of multi-record per-worker streams; the
// record format is shared.)
type Compressed struct {
	N        int // block edge
	Blocks   int // number of blocks
	Quantity string
	Encoder  string
	Epsilon  float64
	Streams  [][]byte
}

// encScratch is one worker's reusable state: the FWT plan, the extracted
// field, the raw record and the encoder that consumes it (which keeps its
// coder between blocks). A pool worker executes its tasks serially, so
// indexing scratch by worker id is race-free.
type encScratch struct {
	fwt   *wavelet.FWT3
	field []float32
	raw   []byte
	enc   Encoder
}

// Compress runs the full pipeline over every block of the grid: extract the
// quantity, forward-transform, decimate, and encode each block as its own
// stream, slotted by block index. Block tasks are independent and outputs
// are position-addressed, so the bytes are identical whether the blocks run
// serially or scattered across a worker pool in any order — the determinism
// contract the dump format and the golden corpus rely on.
func Compress(g *grid.Grid, q Quantity, opt Options) (*Compressed, Stats, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = 1
	}
	nb := len(g.Blocks)
	n := g.N
	cells := n * n * n

	out := &Compressed{
		N: n, Blocks: nb,
		Quantity: q.String(), Encoder: opt.Encoder, Epsilon: opt.Epsilon,
		Streams: make([][]byte, nb),
	}
	stats := Stats{
		Blocks:   nb,
		RawBytes: int64(nb) * int64(cells) * 4,
		Total:    int64(nb) * int64(cells),
		DecTimes: make([]time.Duration, workers),
		EncTimes: make([]time.Duration, workers),
	}

	kept := make([]int64, workers)
	encodeErr := make([]error, nb)
	scratch := make([]*encScratch, workers)
	for w := range scratch {
		enc, err := NewEncoder(opt.Encoder)
		if err != nil {
			return nil, Stats{}, err
		}
		scratch[w] = &encScratch{fwt: wavelet.NewFWT3(n), field: make([]float32, cells), raw: make([]byte, 0, 4+4*cells), enc: enc}
	}
	body := func(w, bi int) {
		s := scratch[w]
		t0 := time.Now()
		sp := opt.Tracer.StartSpan("fwt_decimate", opt.Rank, w+1)
		q.Extract(g.Blocks[bi], s.field)
		s.fwt.Forward(s.field)
		k := decimate(s.field, n, opt.Epsilon, opt.Scale)
		var rec [4]byte
		binary.LittleEndian.PutUint32(rec[:], uint32(bi))
		s.raw = append(s.raw[:0], rec[:]...)
		s.raw = appendFloats(s.raw, s.field)
		sp.End()
		t1 := time.Now()
		stats.DecTimes[w] += t1.Sub(t0)
		kept[w] += k
		sp = opt.Tracer.StartSpan("encode", opt.Rank, w+1)
		out.Streams[bi], encodeErr[bi] = s.enc.Encode(nil, s.raw)
		sp.End()
		stats.EncTimes[w] += time.Since(t1)
	}
	if opt.Parallel != nil {
		opt.Parallel("ENC.block", nb, body)
	} else {
		for bi := 0; bi < nb; bi++ {
			body(0, bi)
		}
	}
	for _, e := range encodeErr {
		if e != nil {
			return nil, Stats{}, e
		}
	}
	for w := 0; w < workers; w++ {
		stats.Kept += kept[w]
	}
	for _, s := range out.Streams {
		stats.Encoded += int64(len(s))
	}
	return out, stats, nil
}

// decimate zeroes detail coefficients with |d| <= eps*scale and returns the
// number of significant coefficients kept. The coarse corner (the lowest
// resolution approximation) is never decimated, preserving the error bound.
func decimate(field []float32, n int, eps, scale float64) int64 {
	if eps == 0 {
		// Lossless mode: keep every coefficient untouched.
		return int64(len(field))
	}
	if scale == 0 {
		for _, v := range field {
			if a := math.Abs(float64(v)); a > scale {
				scale = a
			}
		}
		if scale == 0 {
			scale = 1
		}
	}
	levels := wavelet.Levels(n)
	c := n >> uint(levels)
	// Depth-weighted thresholds: a detail dropped at depth k re-enters the
	// prediction of k finer levels, amplifying its error by up to the
	// boundary-stencil gain per level and direction. Tightening the
	// threshold by 8x per depth keeps the total L∞ error at O(eps) while
	// costing almost nothing in rate (level k holds only 1/8^k of the
	// coefficients).
	thr := make([]float32, levels)
	t := eps * scale
	for k := 0; k < levels; k++ {
		thr[k] = float32(t)
		t /= 8
	}
	var kept int64
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				i := (z*n+y)*n + x
				m := max(x, max(y, z))
				if m < c {
					kept++ // coarse approximation: never decimated
					continue
				}
				// Depth: 0 for the finest detail band (m >= n/2), 1 for the
				// next, etc.
				depth := 0
				for m < n>>(depth+1) {
					depth++
				}
				v := field[i]
				tk := thr[depth]
				if v <= tk && v >= -tk {
					field[i] = 0
				} else {
					kept++
				}
			}
		}
	}
	return kept
}

// Decompress inverts the pipeline, returning the reconstructed scalar field
// of every block (indexed like g.Blocks at compression time).
func (c *Compressed) Decompress() ([][]float32, error) {
	// A Compressed typically arrives deserialized from a dump file, so the
	// header fields are untrusted: validate them before they size
	// allocations or reach wavelet.NewFWT3 (which panics on bad edges).
	n := c.N
	if n < wavelet.MinLen || n > 1<<10 || n&(n-1) != 0 {
		return nil, fmt.Errorf("compress: invalid block edge %d", n)
	}
	if c.Blocks < 0 {
		return nil, fmt.Errorf("compress: invalid block count %d", c.Blocks)
	}
	enc, err := NewEncoder(c.Encoder)
	if err != nil {
		return nil, err
	}
	cells := n * n * n
	recSize := 4 + cells*4
	// Decode every stream before sizing the output: the block count is an
	// untrusted header field, so it must be corroborated by actual decoded
	// records before it drives an allocation (a frame claiming 2^60 blocks
	// must fail cheaply, not OOM).
	raws := make([][]byte, 0, len(c.Streams))
	totalRecs := 0
	for _, stream := range c.Streams {
		raw, err := enc.Decode(nil, stream)
		if err != nil {
			return nil, err
		}
		if len(raw)%recSize != 0 {
			return nil, fmt.Errorf("compress: stream size %d not a multiple of record size %d", len(raw), recSize)
		}
		totalRecs += len(raw) / recSize
		raws = append(raws, raw)
	}
	if totalRecs != c.Blocks {
		return nil, fmt.Errorf("compress: payload carries %d block records, header says %d blocks", totalRecs, c.Blocks)
	}
	fields := make([][]float32, c.Blocks)
	fwt := wavelet.NewFWT3(n)
	for _, raw := range raws {
		for off := 0; off < len(raw); off += recSize {
			bi := int(binary.LittleEndian.Uint32(raw[off:]))
			if bi < 0 || bi >= c.Blocks {
				return nil, fmt.Errorf("compress: block ordinal %d out of range", bi)
			}
			field := readFloats(raw[off+4:off+recSize], cells)
			fwt.Inverse(field)
			fields[bi] = field
		}
	}
	for i, f := range fields {
		if f == nil {
			return nil, fmt.Errorf("compress: block %d missing from payload", i)
		}
	}
	return fields, nil
}

// appendFloats appends the little-endian bytes of the float32 slice.
func appendFloats(dst []byte, src []float32) []byte {
	var b [4]byte
	for _, v := range src {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		dst = append(dst, b[:]...)
	}
	return dst
}

// readFloats decodes cells little-endian float32 values.
func readFloats(src []byte, cells int) []float32 {
	out := make([]float32, cells)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[i*4:]))
	}
	return out
}
