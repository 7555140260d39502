package grid

import (
	"math"
	"math/rand"
	"testing"
)

// TestLabLoadMatchesPerCellOracle: on random partial grids — n in {6,7,8},
// boxes whose 1-block-wide axes wrap periodically onto the block itself,
// random ownership with a halo slab on every face whose neighbor is not
// owned, and a random BC kind per face — the slab loader leaves Lab.Data
// bitwise equal to the per-cell oracle's, including the untouched corner
// and edge regions.
func TestLabLoadMatchesPerCellOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 150; trial++ {
		n := 6 + rng.Intn(3)
		d := Desc{N: n, NBX: 1 + rng.Intn(3), NBY: 1 + rng.Intn(3), NBZ: 1 + rng.Intn(3), H: 1}
		var coords [][3]int
		for z := 0; z < d.NBZ; z++ {
			for y := 0; y < d.NBY; y++ {
				for x := 0; x < d.NBX; x++ {
					if rng.Intn(2) == 0 {
						coords = append(coords, [3]int{x, y, z})
					}
				}
			}
		}
		if len(coords) == 0 {
			coords = append(coords, [3]int{rng.Intn(d.NBX), rng.Intn(d.NBY), rng.Intn(d.NBZ)})
		}
		rng.Shuffle(len(coords), func(i, j int) { coords[i], coords[j] = coords[j], coords[i] })
		g := NewPartial(d, coords)
		var bc BC
		for f := range bc {
			bc[f] = BCKind(rng.Intn(3))
		}
		box := [3]int{d.NBX, d.NBY, d.NBZ}
		for _, b := range g.Blocks {
			for i := range b.Data {
				b.Data[i] = float32(rng.NormFloat64())
			}
			for f := XLo; f <= ZHi; f++ {
				pos := [3]int{b.X, b.Y, b.Z}
				if f.IsHigh() {
					pos[f.Axis()]++
				} else {
					pos[f.Axis()]--
				}
				a := f.Axis()
				pos[a] = (pos[a] + box[a]) % box[a]
				if g.BlockAt(pos[0], pos[1], pos[2]) != nil {
					continue
				}
				halo := make([]float32, b.HaloSize())
				for i := range halo {
					halo[i] = float32(rng.NormFloat64())
				}
				b.SetHalo(f, halo)
			}
		}
		got, want := NewLab(n), NewLab(n)
		for _, b := range g.Blocks {
			for i := range got.Data {
				got.Data[i] = float32(i)
				want.Data[i] = float32(i)
			}
			got.Load(g, bc, b)
			want.loadPerCell(g, bc, b)
			for i := range got.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("trial %d: n=%d box %v owned %v bc %v block (%d,%d,%d): lab word %d = %v, oracle %v",
						trial, n, box, coords, bc, b.X, b.Y, b.Z, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// BenchmarkLabLoad times Lab.Load and reports it per block cell: one 8³
// block under a z-low wall (every ghost slab resolves through a boundary
// condition) and the 32³ blocks of a 2×2×2 box (half the slabs copy from
// neighbor blocks).
func BenchmarkLabLoad(b *testing.B) {
	for _, c := range []struct {
		name  string
		n, nb int
	}{{"n8_wall", 8, 1}, {"n32_box2", 32, 2}} {
		b.Run(c.name, func(b *testing.B) {
			g := New(Desc{N: c.n, NBX: c.nb, NBY: c.nb, NBZ: c.nb, H: 1})
			fill(g, coordValue)
			bc := WallBC(ZLo)
			lab := NewLab(c.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lab.Load(g, bc, g.Blocks[i%len(g.Blocks)])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.n*c.n*c.n), "ns/cell")
		})
	}
}
