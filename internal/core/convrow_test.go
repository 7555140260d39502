package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sliceOf is a ZSlice whose primitive rows are rows, in ZSlice order.
func sliceOf(rows *[nq][]float64) *ZSlice {
	return &ZSlice{R: rows[0], U: rows[1], V: rows[2], W: rows[3], P: rows[4], G: rows[5], Pi: rows[6]}
}

// FuzzConvertRows: convRow equals, cell by cell and bit for bit, the CONV
// arithmetic of the stiffened equation of state, for rows of 1–37 cells
// whose destination rows start at base offsets 0–7 (odd offsets misalign
// every vector store). Cells are physical states, now and then with a
// field replaced by a zero of either sign, an infinity, a NaN, a float32
// subnormal, the largest float32 or the fuzzed special value (narrowed to
// float32). Destination lanes outside the row stay untouched. Both
// dispatches are checked.
func FuzzConvertRows(f *testing.F) {
	f.Add(uint8(8), uint8(1), int64(1), float32(1))
	f.Fuzz(func(t *testing.T, lanes, offset uint8, seed int64, special float32) {
		n := 1 + int(lanes)%37
		off := int(offset) % 8
		specials := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
			float32(math.NaN()), 1e-45, -3e-39, math.MaxFloat32, special}
		rng := rand.New(rand.NewSource(seed))
		src := make([]float32, n*nq)
		for i := 0; i < n; i++ {
			c := src[i*nq : i*nq+nq]
			c[qr] = float32(1 + 999*rng.Float64())
			for _, q := range []int{qu, qv, qw} {
				c[q] = c[qr] * float32(100*(2*rng.Float64()-1))
			}
			c[qg] = float32(1.5 + 2*rng.Float64())
			c[qp] = float32(1e9 * rng.Float64())
			c[qe] = float32(1e5*rng.Float64()) + c[qp]
			if rng.Intn(4) == 0 {
				for k := 1 + rng.Intn(3); k > 0; k-- {
					c[rng.Intn(nq)] = specials[rng.Intn(len(specials))]
				}
			}
		}
		const sentinel = -1234.5
		for _, avx2 := range dispatches() {
			var rows [nq][]float64
			for q := range rows {
				rows[q] = make([]float64, off+n+4)
				for j := range rows[q] {
					rows[q][j] = sentinel
				}
			}
			convRow(sliceOf(&rows), off, src, avx2)
			for j := range rows[0] {
				want := [nq]float64{sentinel, sentinel, sentinel, sentinel, sentinel, sentinel, sentinel}
				if i := j - off; i >= 0 && i < n {
					c := src[i*nq : i*nq+nq]
					r := float64(c[qr])
					inv := 1 / r
					u := float64(c[qu]) * inv
					v := float64(c[qv]) * inv
					w := float64(c[qw]) * inv
					g := float64(c[qg])
					pi := float64(c[qp])
					ke := 0.5 * r * (u*u + v*v + w*w)
					want = [nq]float64{r, u, v, w, (float64(c[qe]) - ke - pi) / g, g, pi}
				}
				for q := range rows {
					if got := rows[q][j]; !sameBits(got, want[q]) {
						t.Fatalf("avx2=%v lane %d of %d, primitive %d: got %v (%#x), want %v (%#x)\ncell %v",
							avx2, j-off, n, q, got, math.Float64bits(got), want[q], math.Float64bits(want[q]), src)
					}
				}
			}
		}
	})
}

// TestConvRowShortOperand: a destination row shorter than the source's
// cells panics before any lane is written, whichever kernel would run.
func TestConvRowShortOperand(t *testing.T) {
	const n = 8
	withDispatch(t, func(t *testing.T, avx2 bool) {
		src := make([]float32, n*nq)
		for i := range src {
			src[i] = 1
		}
		var dst [nq][]float64
		for q := range dst {
			dst[q] = make([]float64, n)
		}
		dst[qp] = dst[qp][:n-1]
		func() {
			defer func() {
				if recover() == nil {
					t.Error("convRow accepted a destination row shorter than the source")
				}
			}()
			convRow(sliceOf(&dst), 0, src, avx2)
		}()
		for q := range dst {
			for i, v := range dst[q] {
				if v != 0 {
					t.Fatalf("primitive %d lane %d written before the panic: %v", q, i, v)
				}
			}
		}
	})
}

// BenchmarkConvertRows: the CONV stage of one RHS evaluation, every ring
// slice a block's sweep converts, at block edge 8 and at the paper's 32,
// under the Go dispatch and, where the CPU has it, the AVX2 one. It reports
// ns per block cell.
func BenchmarkConvertRows(b *testing.B) {
	for _, avx2 := range dispatches() {
		for _, n := range []int{8, 32} {
			b.Run(fmt.Sprintf("%s/n=%d", dispatchName(avx2), n), func(b *testing.B) {
				lab, _ := roughLab(n, 1)
				zs := NewZSlice(n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for z := -sw; z < n+sw; z++ {
						zs.convert(lab, z, avx2)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*n*n), "ns/cell")
			})
		}
	}
}
