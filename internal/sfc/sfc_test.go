package sfc

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestMortonRoundTrip(t *testing.T) {
	m := Morton{Bits: 5}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x, y, z := rng.Intn(32), rng.Intn(32), rng.Intn(32)
		gx, gy, gz := m.Coords(m.Index(x, y, z))
		return gx == x && gy == y && gz == z
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHilbertRoundTrip(t *testing.T) {
	h := Hilbert{Bits: 4}
	for x := 0; x < 16; x++ {
		for y := 0; y < 16; y++ {
			for z := 0; z < 16; z++ {
				gx, gy, gz := h.Coords(h.Index(x, y, z))
				if gx != x || gy != y || gz != z {
					t.Fatalf("hilbert roundtrip (%d,%d,%d) -> (%d,%d,%d)", x, y, z, gx, gy, gz)
				}
			}
		}
	}
}

func TestHilbertBijective(t *testing.T) {
	h := Hilbert{Bits: 3}
	seen := make(map[uint64]bool)
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			for z := 0; z < 8; z++ {
				idx := h.Index(x, y, z)
				if idx >= 512 {
					t.Fatalf("index %d out of range", idx)
				}
				if seen[idx] {
					t.Fatalf("duplicate index %d at (%d,%d,%d)", idx, x, y, z)
				}
				seen[idx] = true
			}
		}
	}
}

// TestHilbertAdjacency: consecutive Hilbert indices are face-adjacent
// blocks — the locality property motivating the SFC reindexing.
func TestHilbertAdjacency(t *testing.T) {
	h := Hilbert{Bits: 3}
	px, py, pz := h.Coords(0)
	for i := uint64(1); i < 512; i++ {
		x, y, z := h.Coords(i)
		d := abs(x-px) + abs(y-py) + abs(z-pz)
		if d != 1 {
			t.Fatalf("indices %d and %d are not adjacent: (%d,%d,%d) vs (%d,%d,%d)", i-1, i, px, py, pz, x, y, z)
		}
		px, py, pz = x, y, z
	}
}

func TestMortonLocalityVsRowMajor(t *testing.T) {
	// Average index distance between neighboring blocks should be smaller
	// for Hilbert than for row-major on a 8³ box — the reason the grid uses
	// an SFC ordering.
	n := 8
	hil := Hilbert{Bits: 3}
	row := RowMajor{NX: n, NY: n, NZ: n}
	// Locality metric: mean Manhattan distance between spatially consecutive
	// curve positions. Hilbert achieves the optimum (1.0 everywhere); the
	// row-major sweep jumps at every row end.
	meanStep := func(c Curve) float64 {
		total := uint64(n) * uint64(n) * uint64(n)
		px, py, pz := c.Coords(0)
		sum := 0.0
		for i := uint64(1); i < total; i++ {
			x, y, z := c.Coords(i)
			sum += float64(abs(x-px) + abs(y-py) + abs(z-pz))
			px, py, pz = x, y, z
		}
		return sum / float64(total-1)
	}
	dh, dr := meanStep(hil), meanStep(row)
	if dh >= dr {
		t.Errorf("Hilbert mean curve step %.2f not better than row-major %.2f", dh, dr)
	}
}

func TestRowMajorRoundTrip(t *testing.T) {
	r := RowMajor{NX: 3, NY: 5, NZ: 7}
	for z := 0; z < 7; z++ {
		for y := 0; y < 5; y++ {
			for x := 0; x < 3; x++ {
				gx, gy, gz := r.Coords(r.Index(x, y, z))
				if gx != x || gy != y || gz != z {
					t.Fatalf("rowmajor roundtrip failed at (%d,%d,%d)", x, y, z)
				}
			}
		}
	}
}

func TestForBox(t *testing.T) {
	if _, ok := ForBox(8, 8, 8).(Hilbert); !ok {
		t.Error("cubic power-of-two box should use Hilbert")
	}
	if _, ok := ForBox(4, 2, 8).(RowMajor); !ok {
		t.Error("non-cubic box should use RowMajor")
	}
	if _, ok := ForBox(1, 1, 1).(RowMajor); !ok {
		t.Error("single block should use RowMajor")
	}
}

func TestEnumerateCoversBox(t *testing.T) {
	for _, dims := range [][3]int{{4, 4, 4}, {2, 3, 5}, {8, 8, 8}, {1, 1, 1}} {
		c := ForBox(dims[0], dims[1], dims[2])
		pts := Enumerate(c, dims[0], dims[1], dims[2])
		seen := make(map[[3]int]bool)
		for _, p := range pts {
			if seen[p] {
				t.Fatalf("%v: duplicate %v", dims, p)
			}
			seen[p] = true
		}
		if len(pts) != dims[0]*dims[1]*dims[2] {
			t.Fatalf("%v: enumerated %d points", dims, len(pts))
		}
	}
}

// walkCube is the reference enumeration Enumerate replaced: walk every
// position of the enclosing power-of-two cube and keep the in-box ones.
// Its cost follows the box's longest edge cubed, so it lives only here.
func walkCube(c Curve, nx, ny, nz int) [][3]int {
	edge := 1
	for edge < nx || edge < ny || edge < nz {
		edge <<= 1
	}
	var out [][3]int
	for i := uint64(0); i < uint64(edge)*uint64(edge)*uint64(edge); i++ {
		x, y, z := c.Coords(i)
		if x < nx && y < ny && z < nz {
			out = append(out, [3]int{x, y, z})
		}
	}
	return out
}

// curvesFor returns the three curves over an nx x ny x nz box, the cube
// curves sized to the enclosing power-of-two cube as the layout sizes them.
func curvesFor(nx, ny, nz int) []Curve {
	bits := uint(1)
	for 1<<bits < max(nx, ny, nz) {
		bits++
	}
	return []Curve{Hilbert{Bits: bits}, Morton{Bits: bits}, RowMajor{NX: nx, NY: ny, NZ: nz}}
}

// TestEnumerateMatchesCubeWalk: index-and-sort yields exactly the cube
// walk's order over seeded random boxes, skewed and non-power-of-two, for
// every curve.
func TestEnumerateMatchesCubeWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	boxes := [][3]int{{5, 3, 7}, {64, 4, 4}, {1, 1, 1}, {16, 16, 16}}
	for len(boxes) < 28 {
		d := [3]int{1 + rng.Intn(12), 1 + rng.Intn(12), 1 + rng.Intn(12)}
		if len(boxes)%2 == 0 { // one long axis
			d[rng.Intn(3)] = 1 + rng.Intn(64)
		}
		boxes = append(boxes, d)
	}
	for _, d := range boxes {
		for _, c := range curvesFor(d[0], d[1], d[2]) {
			got, want := Enumerate(c, d[0], d[1], d[2]), walkCube(c, d[0], d[1], d[2])
			if !slices.Equal(got, want) {
				t.Fatalf("%s on %v: Enumerate differs from the cube walk", c.Name(), d)
			}
		}
	}
}

// countingCurve counts the calls Enumerate makes into its curve.
type countingCurve struct {
	Curve
	index, coords int
}

func (c *countingCurve) Index(x, y, z int) uint64 {
	c.index++
	return c.Curve.Index(x, y, z)
}

func (c *countingCurve) Coords(i uint64) (x, y, z int) {
	c.coords++
	return c.Curve.Coords(i)
}

// TestEnumerateCostFollowsBlocks: Enumerate asks the curve for one index
// per in-box block and never walks curve positions, so a skewed box costs
// what its block count costs.
func TestEnumerateCostFollowsBlocks(t *testing.T) {
	for _, d := range [][3]int{{256, 8, 8}, {5, 3, 7}} {
		for _, c := range curvesFor(d[0], d[1], d[2]) {
			cc := &countingCurve{Curve: c}
			Enumerate(cc, d[0], d[1], d[2])
			if cc.index != d[0]*d[1]*d[2] || cc.coords != 0 {
				t.Errorf("%s on %v: %d Index and %d Coords calls, want %d and 0",
					c.Name(), d, cc.index, cc.coords, d[0]*d[1]*d[2])
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func absU(a, b uint64) float64 {
	if a > b {
		return float64(a - b)
	}
	return float64(b - a)
}
