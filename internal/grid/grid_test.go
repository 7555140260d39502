package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cubism/internal/physics"
)

func fill(g *Grid, f func(ix, iy, iz, q int) float32) {
	for _, b := range g.Blocks {
		n := b.N
		for iz := 0; iz < n; iz++ {
			for iy := 0; iy < n; iy++ {
				for ix := 0; ix < n; ix++ {
					for q := 0; q < NQ; q++ {
						b.Set(ix, iy, iz, q, f(b.X*n+ix, b.Y*n+iy, b.Z*n+iz, q))
					}
				}
			}
		}
	}
}

// coordValue encodes global coordinates so ghost tests can identify exactly
// which cell a value came from.
func coordValue(ix, iy, iz, q int) float32 {
	return float32(((ix*1000+iy)*1000+iz)*10 + q)
}

func TestBlockIndexing(t *testing.T) {
	g := New(Desc{N: 8, NBX: 2, NBY: 3, NBZ: 1, H: 0.1})
	if len(g.Blocks) != 6 {
		t.Fatalf("blocks = %d, want 6", len(g.Blocks))
	}
	fill(g, coordValue)
	// Cell accessor agrees with block accessor at random positions.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		ix, iy, iz := rng.Intn(16), rng.Intn(24), rng.Intn(8)
		q := rng.Intn(NQ)
		if got := g.Cell(ix, iy, iz, q); got != coordValue(ix, iy, iz, q) {
			t.Fatalf("Cell(%d,%d,%d,%d) = %v", ix, iy, iz, q, got)
		}
	}
}

func TestBlocksCoverDomainOnce(t *testing.T) {
	g := New(Desc{N: 8, NBX: 4, NBY: 4, NBZ: 4, H: 0.1})
	seen := map[[3]int]bool{}
	for _, b := range g.Blocks {
		key := [3]int{b.X, b.Y, b.Z}
		if seen[key] {
			t.Fatalf("block %v appears twice", key)
		}
		seen[key] = true
	}
	if len(seen) != 64 {
		t.Fatalf("covered %d blocks, want 64", len(seen))
	}
}

func TestLabInterior(t *testing.T) {
	g := New(Desc{N: 8, NBX: 2, NBY: 2, NBZ: 2, H: 0.1})
	fill(g, coordValue)
	lab := NewLab(8)
	b := g.BlockAt(1, 0, 1)
	lab.Load(g, DefaultBC(), b)
	for iz := 0; iz < 8; iz++ {
		for iy := 0; iy < 8; iy++ {
			for ix := 0; ix < 8; ix++ {
				for q := 0; q < NQ; q++ {
					want := coordValue(8+ix, iy, 8+iz, q)
					if got := lab.Get(ix, iy, iz, q); got != want {
						t.Fatalf("interior (%d,%d,%d,%d) = %v, want %v", ix, iy, iz, q, got, want)
					}
				}
			}
		}
	}
}

func TestLabGhostsFromNeighborBlocks(t *testing.T) {
	g := New(Desc{N: 8, NBX: 2, NBY: 1, NBZ: 1, H: 0.1})
	fill(g, coordValue)
	lab := NewLab(8)
	lab.Load(g, DefaultBC(), g.BlockAt(0, 0, 0))
	// x-high ghosts come from the neighboring block.
	for d := 0; d < StencilWidth; d++ {
		want := coordValue(8+d, 3, 4, 2)
		if got := lab.Get(8+d, 3, 4, 2); got != want {
			t.Fatalf("ghost x+%d = %v, want %v", d, got, want)
		}
	}
}

func TestAbsorbingGhosts(t *testing.T) {
	g := New(Desc{N: 8, NBX: 1, NBY: 1, NBZ: 1, H: 0.1})
	fill(g, coordValue)
	lab := NewLab(8)
	lab.Load(g, DefaultBC(), g.Blocks[0])
	// Beyond the x-low face: clamped to cell 0.
	for d := 1; d <= StencilWidth; d++ {
		want := coordValue(0, 5, 6, 1)
		if got := lab.Get(-d, 5, 6, 1); got != want {
			t.Fatalf("absorbing ghost -%d = %v, want %v", d, got, want)
		}
	}
}

func TestPeriodicGhosts(t *testing.T) {
	g := New(Desc{N: 8, NBX: 1, NBY: 1, NBZ: 1, H: 0.1})
	fill(g, coordValue)
	lab := NewLab(8)
	lab.Load(g, PeriodicBC(), g.Blocks[0])
	if got, want := lab.Get(-1, 2, 3, 0), coordValue(7, 2, 3, 0); got != want {
		t.Fatalf("periodic ghost x=-1 = %v, want %v", got, want)
	}
	if got, want := lab.Get(9, 2, 3, 0), coordValue(1, 2, 3, 0); got != want {
		t.Fatalf("periodic ghost x=9 = %v, want %v", got, want)
	}
}

func TestReflectingGhostsFlipNormalMomentum(t *testing.T) {
	g := New(Desc{N: 8, NBX: 1, NBY: 1, NBZ: 1, H: 0.1})
	fill(g, coordValue)
	lab := NewLab(8)
	lab.Load(g, WallBC(ZLo), g.Blocks[0])
	// z-low ghost mirrors cell (x, y, d-1) with flipped w-momentum.
	for d := 1; d <= StencilWidth; d++ {
		if got, want := lab.Get(2, 3, -d, physics.QW), -coordValue(2, 3, d-1, physics.QW); got != want {
			t.Fatalf("wall ghost w at -%d = %v, want %v", d, got, want)
		}
		if got, want := lab.Get(2, 3, -d, physics.QR), coordValue(2, 3, d-1, physics.QR); got != want {
			t.Fatalf("wall ghost rho at -%d = %v, want %v", d, got, want)
		}
		// Tangential momentum is not flipped.
		if got, want := lab.Get(2, 3, -d, physics.QU), coordValue(2, 3, d-1, physics.QU); got != want {
			t.Fatalf("wall ghost u at -%d = %v, want %v", d, got, want)
		}
	}
}

func TestPackFaceHaloRoundTrip(t *testing.T) {
	// Two partial grids splitting one 2-block global box: packing a block
	// face of one and installing it as the neighbor block's halo on the
	// other must reproduce direct neighbor access in the lab.
	desc := Desc{N: 8, NBX: 2, NBY: 1, NBZ: 1, H: 0.1}
	left := NewPartial(desc, [][3]int{{0, 0, 0}})
	right := NewPartial(desc, [][3]int{{1, 0, 0}})
	fill(left, coordValue)
	fill(right, coordValue)

	// The right rank receives the left block's x-high face as the x-low
	// halo of its own block.
	payload := left.Blocks[0].PackFace(XHi, nil)
	right.Blocks[0].SetHalo(XLo, payload)
	lab := NewLab(8)
	lab.Load(right, DefaultBC(), right.Blocks[0])
	for d := 1; d <= StencilWidth; d++ {
		for iy := 0; iy < 8; iy++ {
			for q := 0; q < NQ; q++ {
				want := coordValue(8-d, iy, 5, q)
				if got := lab.Get(-d, iy, 5, q); got != want {
					t.Fatalf("halo ghost (-%d,%d) q=%d = %v, want %v", d, iy, q, got, want)
				}
			}
		}
	}
}

func TestHaloSizes(t *testing.T) {
	g := New(Desc{N: 8, NBX: 2, NBY: 3, NBZ: 4, H: 0.1})
	// Blocks are cubic, so every face slab has the same size.
	for f := XLo; f <= ZHi; f++ {
		if got, want := g.Blocks[0].HaloSize(), StencilWidth*8*8*NQ; got != want {
			t.Errorf("HaloSize() for face %v = %d, want %d", f, got, want)
		}
	}
}

func TestFaceProperties(t *testing.T) {
	if XLo.Axis() != 0 || YHi.Axis() != 1 || ZLo.Axis() != 2 {
		t.Error("face axes wrong")
	}
	if XLo.IsHigh() || !XHi.IsHigh() {
		t.Error("face side wrong")
	}
}

func TestCellCenter(t *testing.T) {
	d := Desc{N: 8, NBX: 1, NBY: 1, NBZ: 1, H: 0.125, Origin: [3]float64{1, 2, 3}}
	x, y, z := d.CellCenter(0, 0, 0)
	if math.Abs(x-1.0625) > 1e-15 || math.Abs(y-2.0625) > 1e-15 || math.Abs(z-3.0625) > 1e-15 {
		t.Errorf("CellCenter = %v %v %v", x, y, z)
	}
}

func TestMirrorClampProperties(t *testing.T) {
	f := func(raw int) bool {
		// mirror/clamp are defined on the ghost range of the WENO stencil:
		// [-StencilWidth, n+StencilWidth).
		n := 16
		span := n + 2*StencilWidth
		i := ((raw%span)+span)%span - StencilWidth
		m := mirror(i, n)
		c := clamp(i, n)
		return m >= 0 && m < n && c >= 0 && c < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// Exact values.
	if mirror(-1, 8) != 0 || mirror(-3, 8) != 2 || mirror(8, 8) != 7 || mirror(10, 8) != 5 {
		t.Error("mirror values wrong")
	}
}
