package layout

import (
	"testing"

	"cubism/internal/grid"
	"cubism/internal/sfc"
)

func TestOwnerMatchesBlocksExactlyOnce(t *testing.T) {
	for _, name := range []string{"cartesian", "hilbert", "morton", "rowmajor"} {
		rankDims := [3]int{2, 2, 1}
		blockDims := [3]int{2, 1, 2}
		l := MustNew(name, rankDims, blockDims, 4, [3]bool{})
		seen := make(map[[3]int]int)
		for r := 0; r < l.NRanks; r++ {
			for _, c := range l.Blocks(r) {
				seen[c]++
				if own := l.Owner(c); own != r {
					t.Errorf("%s: Blocks(%d) yields %v but Owner says rank %d", name, r, c, own)
				}
			}
		}
		if len(seen) != l.TotalBlocks() {
			t.Errorf("%s: %d distinct blocks owned, want %d", name, len(seen), l.TotalBlocks())
		}
		for c, cnt := range seen {
			if cnt != 1 {
				t.Errorf("%s: block %v owned %d times", name, c, cnt)
			}
		}
	}
}

// TestCartesianPreservesHistoricalOrder pins the degenerate layout to the
// pre-layout-layer decomposition: rank r owns its cartesian box, enumerated
// along sfc.ForBox of the per-rank block dims — the order every existing
// checkpoint and dump on disk was serialized in.
func TestCartesianPreservesHistoricalOrder(t *testing.T) {
	rankDims := [3]int{2, 1, 1}
	blockDims := [3]int{2, 2, 2}
	l := MustNew("cartesian", rankDims, blockDims, 2, [3]bool{})
	for r := 0; r < 2; r++ {
		rx := r % rankDims[0]
		local := sfc.Enumerate(sfc.ForBox(2, 2, 2), 2, 2, 2)
		got := l.Blocks(r)
		if len(got) != len(local) {
			t.Fatalf("rank %d owns %d blocks, want %d", r, len(got), len(local))
		}
		for i, c := range local {
			want := [3]int{rx*2 + c[0], c[1], c[2]}
			if got[i] != want {
				t.Fatalf("rank %d block %d: got %v want %v", r, i, got[i], want)
			}
		}
	}
}

func TestSFCChunksContiguousOnCurve(t *testing.T) {
	l := MustNew("hilbert", [3]int{2, 2, 2}, [3]int{2, 2, 2}, 8, [3]bool{})
	order := sfc.Enumerate(l.curve, l.GB[0], l.GB[1], l.GB[2])
	i := 0
	for r := 0; r < l.NRanks; r++ {
		for _, c := range l.Blocks(r) {
			if c != order[i] {
				t.Fatalf("rank %d: curve position %d holds %v, want %v", r, i, c, order[i])
			}
			i++
		}
	}
}

func TestLinearIDRoundTrip(t *testing.T) {
	l := MustNew("hilbert", [3]int{2, 2, 1}, [3]int{2, 3, 4}, 4, [3]bool{})
	seen := make(map[int64]bool)
	for z := 0; z < l.GB[2]; z++ {
		for y := 0; y < l.GB[1]; y++ {
			for x := 0; x < l.GB[0]; x++ {
				c := [3]int{x, y, z}
				id := l.LinearID(c)
				if seen[id] {
					t.Fatalf("duplicate linear id %d", id)
				}
				seen[id] = true
				if got := l.CoordsOf(id); got != c {
					t.Fatalf("CoordsOf(LinearID(%v)) = %v", c, got)
				}
			}
		}
	}
}

func TestNeighborTopology(t *testing.T) {
	l := MustNew("cartesian", [3]int{2, 1, 1}, [3]int{2, 2, 2}, 2, [3]bool{true, false, false})
	// Interior adjacency.
	if nc, ok := l.Neighbor([3]int{1, 0, 0}, grid.XHi); !ok || nc != ([3]int{2, 0, 0}) {
		t.Fatalf("XHi neighbor of (1,0,0): got %v ok=%v", nc, ok)
	}
	// Periodic wrap on x.
	if nc, ok := l.Neighbor([3]int{3, 0, 0}, grid.XHi); !ok || nc != ([3]int{0, 0, 0}) {
		t.Fatalf("periodic XHi wrap: got %v ok=%v", nc, ok)
	}
	// Non-periodic boundary on y.
	if _, ok := l.Neighbor([3]int{0, 0, 0}, grid.YLo); ok {
		t.Fatal("YLo at the domain boundary should have no neighbor")
	}
}

func TestWithCutsMovesOwnership(t *testing.T) {
	l := MustNew("hilbert", [3]int{2, 1, 1}, [3]int{2, 2, 2}, 2, [3]bool{})
	total := l.TotalBlocks()
	if l.Cuts[1] != total/2 {
		t.Fatalf("uniform cuts: got %v", l.Cuts)
	}
	skew := l.WithCuts([]int{0, 2, total})
	if n0 := len(skew.Blocks(0)); n0 != 2 {
		t.Fatalf("skewed rank 0 owns %d blocks, want 2", n0)
	}
	moved := Diff(l, skew)
	if moved != total/2-2 {
		t.Fatalf("Diff = %d, want %d", moved, total/2-2)
	}
	// The original is untouched.
	if len(l.Blocks(0)) != total/2 {
		t.Fatal("WithCuts mutated its receiver")
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	if _, err := New("hilbert", [3]int{2, 1, 1}, [3]int{2, 2, 2}, 3, [3]bool{}); err == nil {
		t.Error("world size mismatch accepted")
	}
	if _, err := New("zigzag", [3]int{1, 1, 1}, [3]int{2, 2, 2}, 1, [3]bool{}); err == nil {
		t.Error("unknown layout name accepted")
	}
	if _, err := New("morton", [3]int{0, 1, 1}, [3]int{2, 2, 2}, 0, [3]bool{}); err == nil {
		t.Error("zero rank dims accepted")
	}
}

func TestCartesianOwnerMatchesRankFormula(t *testing.T) {
	rankDims := [3]int{2, 3, 2}
	blockDims := [3]int{1, 2, 1}
	l := MustNew("cartesian", rankDims, blockDims, 12, [3]bool{})
	for rz := 0; rz < rankDims[2]; rz++ {
		for ry := 0; ry < rankDims[1]; ry++ {
			for rx := 0; rx < rankDims[0]; rx++ {
				want := (rz*rankDims[1]+ry)*rankDims[0] + rx // mpi.Cart's x-fastest mapping
				c := [3]int{rx * blockDims[0], ry * blockDims[1], rz * blockDims[2]}
				if got := l.Owner(c); got != want {
					t.Fatalf("block %v: owner %d, want %d", c, got, want)
				}
			}
		}
	}
}

var layoutSink *Layout

// BenchmarkLayoutNew times one rank's layout build (the curve order, the
// position table and the cuts) on a skewed box and on the production cube.
func BenchmarkLayoutNew(b *testing.B) {
	for _, bc := range []struct {
		name                string
		rankDims, blockDims [3]int
	}{
		{"hilbert_256x8x8", [3]int{2, 1, 1}, [3]int{128, 8, 8}},
		{"hilbert_32x32x32", [3]int{2, 1, 1}, [3]int{16, 32, 32}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				layoutSink = MustNew("hilbert", bc.rankDims, bc.blockDims, 2, [3]bool{})
			}
		})
	}
}
