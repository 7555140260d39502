package grid

import (
	"fmt"
	"testing"

	"cubism/internal/physics"
)

// ghostCoord places a ghost cell d layers beyond the given face, at tangent
// position (u, v) in the face plane (u on the lower tangent axis).
func ghostCoord(f Face, d, u, v, n int) (ix, iy, iz int) {
	lo, hi := -d, n-1+d
	switch f {
	case XLo:
		return lo, u, v
	case XHi:
		return hi, u, v
	case YLo:
		return u, lo, v
	case YHi:
		return u, hi, v
	case ZLo:
		return u, v, lo
	default:
		return u, v, hi
	}
}

// expectedGhost reimplements the boundary-condition semantics independently
// of grid.ghost, as the oracle for the table tests below: periodic wraps,
// absorbing clamps, reflecting mirrors about the face and flips the
// momentum component normal to it.
func expectedGhost(kind BCKind, f Face, ix, iy, iz, q, n int) float32 {
	wrap := func(i int) int { return ((i % n) + n) % n }
	mir := func(i int) int {
		if i < 0 {
			return -i - 1
		}
		if i >= n {
			return 2*n - 1 - i
		}
		return i
	}
	clmp := func(i int) int {
		if i < 0 {
			return 0
		}
		if i >= n {
			return n - 1
		}
		return i
	}
	switch kind {
	case Periodic:
		return coordValue(wrap(ix), wrap(iy), wrap(iz), q)
	case Reflecting:
		v := coordValue(mir(ix), mir(iy), mir(iz), q)
		if q == physics.QU+f.Axis() {
			v = -v
		}
		return v
	default:
		return coordValue(clmp(ix), clmp(iy), clmp(iz), q)
	}
}

// TestGhostFaceTable exercises every (BC kind, face) pair through the full
// Lab assembly path, probing all stencil depths at tangent positions that
// include the corners and edges of each face slab.
func TestGhostFaceTable(t *testing.T) {
	const n = 8
	faces := []Face{XLo, XHi, YLo, YHi, ZLo, ZHi}
	for _, kind := range []BCKind{Absorbing, Reflecting, Periodic} {
		for _, face := range faces {
			t.Run(fmt.Sprintf("%v/%v", kind, face), func(t *testing.T) {
				g := New(Desc{N: n, NBX: 1, NBY: 1, NBZ: 1, H: 1.0 / n})
				fill(g, coordValue)
				var bc BC
				bc[face] = kind
				lab := NewLab(n)
				lab.Load(g, bc, g.Blocks[0])
				// Tangent positions: the face-slab corners (0, n-1) plus an
				// interior point, so edge-adjacent ghost layers are covered.
				for d := 1; d <= StencilWidth; d++ {
					for _, u := range []int{0, 3, n - 1} {
						for _, v := range []int{0, 5, n - 1} {
							ix, iy, iz := ghostCoord(face, d, u, v, n)
							for q := 0; q < NQ; q++ {
								want := expectedGhost(kind, face, ix, iy, iz, q, n)
								if got := lab.Get(ix, iy, iz, q); got != want {
									t.Fatalf("ghost (%d,%d,%d) q=%d depth %d: got %v, want %v",
										ix, iy, iz, q, d, got, want)
								}
							}
						}
					}
				}
			})
		}
	}
}

// TestGhostFullSweep checks grid.ghost directly over every ghost cell of
// every face (all depths, the entire tangent plane, all quantities) for
// each BC kind — the exhaustive version of the table above.
func TestGhostFullSweep(t *testing.T) {
	const n = 8
	g := New(Desc{N: n, NBX: 1, NBY: 1, NBZ: 1, H: 1.0 / n})
	fill(g, coordValue)
	faces := []Face{XLo, XHi, YLo, YHi, ZLo, ZHi}
	for _, kind := range []BCKind{Absorbing, Reflecting, Periodic} {
		bc := BC{kind, kind, kind, kind, kind, kind}
		for _, face := range faces {
			for d := 1; d <= StencilWidth; d++ {
				for u := 0; u < n; u++ {
					for v := 0; v < n; v++ {
						ix, iy, iz := ghostCoord(face, d, u, v, n)
						for q := 0; q < NQ; q++ {
							want := expectedGhost(kind, face, ix, iy, iz, q, n)
							if got := g.ghost(bc, ix, iy, iz, q); got != want {
								t.Fatalf("%v %v ghost (%d,%d,%d) q=%d: got %v, want %v",
									kind, face, ix, iy, iz, q, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestMixedBCFacesIndependent: the kind assigned to one face must not leak
// into the resolution of any other face.
func TestMixedBCFacesIndependent(t *testing.T) {
	const n = 8
	g := New(Desc{N: n, NBX: 1, NBY: 1, NBZ: 1, H: 1.0 / n})
	fill(g, coordValue)
	var bc BC
	bc[XLo] = Reflecting
	bc[YHi] = Periodic
	// Remaining faces default to Absorbing.
	perFace := map[Face]BCKind{
		XLo: Reflecting, XHi: Absorbing,
		YLo: Absorbing, YHi: Periodic,
		ZLo: Absorbing, ZHi: Absorbing,
	}
	for face, kind := range perFace {
		ix, iy, iz := ghostCoord(face, 2, 1, n-1, n)
		for q := 0; q < NQ; q++ {
			want := expectedGhost(kind, face, ix, iy, iz, q, n)
			if got := g.ghost(bc, ix, iy, iz, q); got != want {
				t.Errorf("face %v with mixed BC: ghost (%d,%d,%d) q=%d got %v, want %v",
					face, ix, iy, iz, q, got, want)
			}
		}
	}
}

// TestLabRoutesRemoteNeighborsThroughHalos: on a partial grid, the lab must
// resolve ghost cells whose neighbor block is not locally owned through the
// installed per-block halo slab — including periodic wraps, which are
// topology (not BC) on partial grids — while physical boundaries still go
// through the BC resolver and owned neighbors are read directly.
func TestLabRoutesRemoteNeighborsThroughHalos(t *testing.T) {
	const n = 8
	desc := Desc{N: n, NBX: 2, NBY: 1, NBZ: 1, H: 1.0 / (2 * n)}
	g := NewPartial(desc, [][3]int{{0, 0, 0}})
	fill(g, coordValue)
	b := g.Blocks[0]
	halo := make([]float32, b.HaloSize())
	for i := range halo {
		halo[i] = float32(1e6 + i)
	}
	// Block (0,0,0) under periodic x wraps its XLo face to global block
	// (1,0,0), which this grid does not own: the lab must read the slab.
	// The XHi face reaches the same remote block directly and needs one too.
	b.SetHalo(XLo, halo)
	hiHalo := make([]float32, b.HaloSize())
	for i := range hiHalo {
		hiHalo[i] = float32(2e6 + i)
	}
	b.SetHalo(XHi, hiHalo)
	bc := PeriodicBC()
	lab := NewLab(n)
	lab.Load(g, bc, b)
	// Slab layout ((d*n+v)*n+u)*NQ+q, d=0 adjacent, u=iy, v=iz for x faces.
	for q := 0; q < NQ; q++ {
		want := halo[((0*n+3)*n+2)*NQ+q]
		if got := lab.Get(-1, 2, 3, q); got != want {
			t.Errorf("halo-backed ghost q=%d: got %v, want %v", q, got, want)
		}
	}
	// y stays periodic through the block itself (NBY=1 wraps to the owned
	// block), resolved by direct topology, not the slab.
	if got, want := lab.Get(2, n, 3, 0), coordValue(2, 0, 3, 0); got != want {
		t.Errorf("periodic self-wrap: got %v, want %v", got, want)
	}

	// Under a non-periodic BC the XLo face is a physical boundary: the BC
	// resolver wins and the slab is not consulted. (XHi remains an
	// interior inter-block face and still reads its slab.)
	lab.Load(g, DefaultBC(), b)
	if got, want := lab.Get(-1, 2, 3, 0), coordValue(0, 2, 3, 0); got != want {
		t.Errorf("absorbing ghost: got %v, want %v", got, want)
	}
	if got, want := lab.Get(n, 2, 3, 0), hiHalo[((0*n+3)*n+2)*NQ]; got != want {
		t.Errorf("interior halo ghost: got %v, want %v", got, want)
	}

	// A missing slab on a topology-remote face must fail loudly rather
	// than silently fall back to a BC.
	g.ClearHalos()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("lab read of a remote neighbor with no installed halo did not panic")
			}
		}()
		lab.Load(g, bc, b)
	}()
}
