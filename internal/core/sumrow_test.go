package core

import (
	"math"
	"math/rand"
	"testing"
)

// fuzzValue draws an ordinary value across twenty decades or, one time in
// eight, one of specials.
func fuzzValue(rng *rand.Rand, specials []float64) float64 {
	if rng.Intn(8) == 0 {
		return specials[rng.Intn(len(specials))]
	}
	return (2*rng.Float64() - 1) * math.Pow(10, float64(rng.Intn(21)-10))
}

// sameBits reports whether got and want have the same bits, or are both
// NaN: a NaN's payload may follow operand order.
func sameBits(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
}

// FuzzSumRows: sumRow equals, lane by lane and bit for bit, the SUM
// arithmetic it replaces, acc -= hi-lo and acc -= (hi-lo) - φ·du for Γ and
// Π, for rows of 1–37 lanes whose flux rows start at base offsets 0–7 (odd
// offsets misalign every vector load), on values mixing twenty decades with
// zeros of both signs, infinities, NaNs, subnormals, the largest float64
// (whose differences overflow) and the fuzzed special value. Accumulator
// lanes outside the row stay untouched. Both dispatches are checked.
func FuzzSumRows(f *testing.F) {
	f.Add(uint8(8), uint8(1), int64(1), 1.0)
	f.Fuzz(func(t *testing.T, lanes, offset uint8, seed int64, special float64) {
		n := 1 + int(lanes)%37
		off := int(offset) % 8
		specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
			5e-324, -2.5e-310, math.MaxFloat64, -math.MaxFloat64, special}
		rng := rand.New(rand.NewSource(seed))
		lo, hi := newFluxPlane(off+n+4), newFluxPlane(off+n+4)
		for _, p := range []*fluxPlane{lo, hi} {
			for _, row := range [8][]float64{p.fr, p.fun, p.fut1, p.fut2, p.fe, p.fg, p.fpi, p.ustar} {
				for j := range row {
					row[j] = fuzzValue(rng, specials)
				}
			}
		}
		g, pi := make([]float64, off+n)[off:], make([]float64, off+n)[off:]
		for i := range g {
			g[i], pi[i] = fuzzValue(rng, specials), fuzzValue(rng, specials)
		}
		var init [nq][]float64
		for k := range init {
			init[k] = make([]float64, n+4)
			for i := range init[k] {
				init[k][i] = fuzzValue(rng, specials)
			}
		}
		hiRows := [8][]float64{hi.fr, hi.fun, hi.fut1, hi.fut2, hi.fe, hi.fg, hi.fpi, hi.ustar}
		loRows := [8][]float64{lo.fr, lo.fun, lo.fut1, lo.fut2, lo.fe, lo.fg, lo.fpi, lo.ustar}
		for _, avx2 := range dispatches() {
			var acc, rows [nq][]float64
			for k := range acc {
				rows[k] = append([]float64(nil), init[k]...)
				acc[k] = rows[k][:n]
			}
			sumRow(&acc, lo, hi, off, g, pi, n, avx2)
			for i := 0; i < n+4; i++ {
				j := off + i
				du := hi.ustar[j] - lo.ustar[j]
				for k := range rows {
					want := init[k][i]
					if i < n {
						d := hiRows[k][j] - loRows[k][j]
						switch k {
						case 5:
							d -= g[i] * du
						case 6:
							d -= pi[i] * du
						}
						want -= d
					}
					if got := rows[k][i]; !sameBits(got, want) {
						t.Fatalf("avx2=%v lane %d of %d, accumulator %d: got %v (%#x), want %v (%#x)",
							avx2, i, n, k, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			}
		}
	})
}

// TestSumRowShortOperand: any row shorter than the n cells panics before
// any accumulator lane is written, whichever kernel would run.
func TestSumRowShortOperand(t *testing.T) {
	const n = 8
	withDispatch(t, func(t *testing.T, avx2 bool) {
		for _, short := range []string{"acc", "g", "pi", "lo", "hi"} {
			lo, hi := newFluxPlane(n), newFluxPlane(n)
			for j := range hi.fr {
				hi.fr[j], hi.fg[j] = 1, 1
			}
			g, pi := make([]float64, n), make([]float64, n)
			var acc [nq][]float64
			for k := range acc {
				acc[k] = make([]float64, n)
			}
			switch short {
			case "acc":
				acc[qe] = acc[qe][:n-1]
			case "g":
				g = g[:n-1]
			case "pi":
				pi = pi[:n-1]
			case "lo":
				lo.fpi = lo.fpi[:n-1]
			case "hi":
				hi.ustar = hi.ustar[:n-1]
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("sumRow accepted a short %s row", short)
					}
				}()
				sumRow(&acc, lo, hi, 0, g, pi, n, avx2)
			}()
			for k := range acc {
				for i, v := range acc[k] {
					if v != 0 {
						t.Fatalf("short %s: accumulator %d lane %d written before the panic: %v", short, k, i, v)
					}
				}
			}
		}
	})
}
