package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// FuzzUpdateRows: updateRow equals, lane by lane and bit for bit, the UP
// arithmetic in float64 with both float32 narrowings, for rows of 1–37
// lanes starting at base offsets 0–7 (odd offsets misalign every vector
// load and store). The fuzzed value is the coefficient a; b and dt come
// from the seed. Ordinary lanes mix float32 values across twelve decades
// with zeros of both signs, infinities, NaNs, subnormals and the largest
// float32. Narrowing lanes (u = reg = ±1, rhs = 0) make r = ±a exactly, so
// reg narrows ±a and u narrows ±1 + b·(±a): the committed seeds pick a and
// b so that these land halfway between two float32 values (ties round to
// even), overflow or underflow float32. Cancelling lanes set u to -b·r
// rounded to float32, so u + b·r keeps only what r's own narrowing would
// lose. Lanes outside the row stay untouched. Both dispatches are checked.
func FuzzUpdateRows(f *testing.F) {
	f.Add(uint8(8), uint8(1), int64(1), 1.0)
	f.Fuzz(func(t *testing.T, lanes, offset uint8, seed int64, a float64) {
		n := 1 + int(lanes)%37
		off := int(offset) % 8
		rng := rand.New(rand.NewSource(seed))
		coefs := []float64{1, 0x1p-24, 15.0 / 16, -5.0 / 9, 1e-7, 1e39, math.Copysign(0, -1)}
		b, dt := coefs[rng.Intn(len(coefs))], coefs[rng.Intn(len(coefs))]
		specials := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
			float32(math.NaN()), 1e-45, -3e-39, math.MaxFloat32}
		value := func() float32 {
			if rng.Intn(6) == 0 {
				return specials[rng.Intn(len(specials))]
			}
			return float32((2*rng.Float64() - 1) * math.Pow(10, float64(rng.Intn(13)-6)))
		}
		const pad = 4
		u0, reg0, rhs := make([]float32, off+n+pad), make([]float32, off+n+pad), make([]float32, off+n+pad)
		for i := range u0 {
			switch rng.Intn(4) {
			case 0:
				s := float32(1 - 2*rng.Intn(2))
				u0[i], reg0[i], rhs[i] = s, s, 0
			case 1:
				// Cancelling lane: u + b·r is the rounding error of u, so u
				// must take r unrounded.
				reg0[i], rhs[i] = value(), value()
				u0[i] = float32(-b * (a*float64(reg0[i]) + dt*float64(rhs[i])))
			default:
				u0[i], reg0[i], rhs[i] = value(), value(), value()
			}
		}
		for _, avx2 := range dispatches() {
			u, reg := append([]float32(nil), u0...), append([]float32(nil), reg0...)
			updateRow(u[off:off+n], reg[off:off+n], rhs[off:off+n], a, b, dt, avx2)
			for j := range u {
				wu, wreg := u0[j], reg0[j]
				if i := j - off; i >= 0 && i < n {
					r := a*float64(reg0[j]) + dt*float64(rhs[j])
					wreg = float32(r)
					wu = float32(float64(u0[j]) + b*r)
				}
				for _, c := range [2][2]float32{{u[j], wu}, {reg[j], wreg}} {
					got, want := c[0], c[1]
					if math.Float32bits(got) != math.Float32bits(want) && !(got != got && want != want) {
						t.Fatalf("avx2=%v lane %d of %d (a %v, b %v, dt %v): u %v reg %v, want u %v reg %v",
							avx2, j-off, n, a, b, dt, u[j], reg[j], wu, wreg)
					}
				}
			}
		}
	})
}

// TestUpdateShortOperand: a register or rhs row shorter than the state
// panics before anything is written, whichever kernel would run; so does
// UpdateScalar.
func TestUpdateShortOperand(t *testing.T) {
	const n = 8
	withDispatch(t, func(t *testing.T, avx2 bool) {
		for _, short := range []string{"reg", "rhs"} {
			u, reg, rhs := make([]float32, n), make([]float32, n), make([]float32, n)
			for i := range rhs {
				rhs[i], reg[i] = 1, 1
			}
			switch short {
			case "reg":
				reg = reg[:n-1]
			case "rhs":
				rhs = rhs[:n-1]
			}
			for name, up := range map[string]func(){
				"updateRow":    func() { updateRow(u, reg, rhs, 1, 1, 1, avx2) },
				"UpdateScalar": func() { UpdateScalar(u, reg, rhs, 1, 1, 1) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s accepted a short %s", name, short)
						}
					}()
					up()
				}()
				for i := range reg {
					if u[i] != 0 || reg[i] != 1 {
						t.Fatalf("%s, short %s: lane %d written before the panic: u %v reg %v", name, short, i, u[i], reg[i])
					}
				}
			}
		}
	})
}

// BenchmarkUpdateRows: one UP stage over a block of n³ cells (UpdateScalar's
// work) at block edge 8 and at the paper's 32, under the Go dispatch and,
// where the CPU has it, the AVX2 one. It reports ns per value.
func BenchmarkUpdateRows(b *testing.B) {
	for _, avx2 := range dispatches() {
		for _, n := range []int{8, 32} {
			b.Run(fmt.Sprintf("%s/n=%d", dispatchName(avx2), n), func(b *testing.B) {
				size := n * n * n * nq
				u, reg, rhs := make([]float32, size), make([]float32, size), make([]float32, size)
				for i := range u {
					u[i], reg[i], rhs[i] = float32(i%97)*0.25, float32(i%13)*0.5, float32(i%11)-5.5
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					updateRow(u, reg, rhs, RK3A[1], RK3B[1], 1e-7, avx2)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/value")
			})
		}
	}
}
