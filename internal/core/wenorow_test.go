package core

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzWenoRows: wenoRow equals wenoMinus lane by lane, bit for bit, for
// 1–40 lanes whose views start at any base offset (odd offsets misalign
// every vector load), on operands mixing ordinary values across twenty
// decades with zeros of both signs, infinities, NaNs, subnormals and the
// fuzzed special value. A NaN result only has to be a NaN: its payload may
// follow operand order. Both the minus (bases 0…4) and the plus (bases
// 5…1) orientation are checked, under the AVX2 and the Go dispatch.
func FuzzWenoRows(f *testing.F) {
	f.Add(uint8(8), uint8(1), int64(1), 1.0)
	f.Fuzz(func(t *testing.T, lanes, offset uint8, seed int64, special float64) {
		n := 1 + int(lanes)%40
		off := int(offset) % 8
		specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
			5e-324, -2.5e-310, math.MaxFloat64, special}
		rng := rand.New(rand.NewSource(seed))
		v := make([]float64, off+n+5)
		for i := range v {
			if rng.Intn(8) == 0 {
				v[i] = specials[rng.Intn(len(specials))]
			} else {
				v[i] = (2*rng.Float64() - 1) * math.Pow(10, float64(rng.Intn(21)-10))
			}
		}
		w := v[off:]
		out := make([]float64, n)
		for _, avx2 := range dispatches() {
			for _, bases := range [][5]int{{0, 1, 2, 3, 4}, {5, 4, 3, 2, 1}} {
				wenoRow(out, w[bases[0]:], w[bases[1]:], w[bases[2]:], w[bases[3]:], w[bases[4]:], avx2)
				for i, got := range out {
					want := wenoMinus(w[bases[0]+i], w[bases[1]+i], w[bases[2]+i], w[bases[3]+i], w[bases[4]+i])
					if math.IsNaN(want) && math.IsNaN(got) {
						continue
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("avx2=%v bases %v lane %d of %d: got %v (%#x), wenoMinus %v (%#x)",
							avx2, bases, i, n, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			}
		}
	})
}

// TestWenoRowShortOperand: a view shorter than the row panics before any
// lane is computed, under either dispatch.
func TestWenoRowShortOperand(t *testing.T) {
	withDispatch(t, func(t *testing.T, avx2 bool) {
		defer func() {
			if recover() == nil {
				t.Error("wenoRow accepted an operand shorter than out")
			}
		}()
		v := make([]float64, 12)
		wenoRow(make([]float64, 8), v, v, v, v, v[5:], avx2)
	})
}
