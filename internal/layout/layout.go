// Package layout owns the cross-rank block decomposition: a global index of
// all blocks in the simulation, an Owner(block) → rank map every rank
// derives identically, and the per-rank block enumeration the grid layer
// allocates from.
//
// Two families of layouts exist. The cartesian layout is the paper's
// decomposition — a fixed grid of ranks, each owning an identical box of
// blocks — and is the degenerate case every pre-existing configuration maps
// onto bit-for-bit. The SFC layouts (hilbert, morton, rowmajor) enumerate
// the global block box along a space-filling curve and split the curve into
// contiguous chunks, one per rank (internal/sfc.Partition); because a chunk
// boundary can fall anywhere along the curve, a block's six face-neighbors
// may live on any rank, and because the chunks are just cut points, the
// rebalancer can move them at run time (WithCuts) without touching the
// curve itself.
//
// Every constructor is deterministic: ranks build their own Layout from the
// shared configuration and agree on ownership without communication.
package layout

import (
	"fmt"

	"cubism/internal/grid"
	"cubism/internal/sfc"
)

// Cartesian is the Name of the degenerate fixed-rank-grid layout.
const Cartesian = "cartesian"

// Layout is an immutable assignment of every block in the global
// RankDims·BlockDims box to a rank.
type Layout struct {
	// Name is "cartesian" or the SFC curve name ("hilbert", "morton",
	// "rowmajor").
	Name string
	// GB is the global block box: RankDims[i]*BlockDims[i] per dimension.
	GB [3]int
	// NRanks is the world size the layout partitions over.
	NRanks int
	// RankDims and BlockDims carry the configured cartesian shape; SFC
	// layouts use them only to derive GB and NRanks.
	RankDims, BlockDims [3]int
	// Periodic marks the axes with periodic boundary conditions, which wrap
	// the face-neighbor topology.
	Periodic [3]bool
	// Cuts are the curve cut points of an SFC layout (len NRanks+1): rank r
	// owns curve positions [Cuts[r], Cuts[r+1]). Nil for cartesian.
	Cuts []int

	curve sfc.Curve
	order [][3]int // global curve enumeration (SFC layouts; nil for cartesian)
	pos   []int    // LinearID → curve ordinal (SFC layouts)
}

// New builds the named layout. name "" or "cartesian" yields the cartesian
// layout; "hilbert", "morton" and "rowmajor" yield SFC layouts with uniform
// cut points. nranks must equal the RankDims product.
func New(name string, rankDims, blockDims [3]int, nranks int, periodic [3]bool) (*Layout, error) {
	if err := Check(name, rankDims, blockDims, nranks); err != nil {
		return nil, err
	}
	gb := [3]int{rankDims[0] * blockDims[0], rankDims[1] * blockDims[1], rankDims[2] * blockDims[2]}
	l := &Layout{
		Name:      name,
		GB:        gb,
		NRanks:    nranks,
		RankDims:  rankDims,
		BlockDims: blockDims,
		Periodic:  periodic,
	}
	switch name {
	case "", Cartesian:
		l.Name = Cartesian
		return l, nil
	case "hilbert", "morton":
		// A curve on the enclosing power-of-two cube orders any smaller
		// box (sfc.Enumerate).
		bits := uint(1)
		for 1<<bits < max(gb[0], gb[1], gb[2]) {
			bits++
		}
		if name == "hilbert" {
			l.curve = sfc.Hilbert{Bits: bits}
		} else {
			l.curve = sfc.Morton{Bits: bits}
		}
	case "rowmajor":
		l.curve = sfc.RowMajor{NX: gb[0], NY: gb[1], NZ: gb[2]}
	}
	l.order = sfc.Enumerate(l.curve, gb[0], gb[1], gb[2])
	l.pos = make([]int, len(l.order))
	for i, c := range l.order {
		l.pos[l.LinearID(c)] = i
	}
	l.Cuts = sfc.Partition(len(l.order), nranks)
	return l, nil
}

// Check reports the error New would return for these arguments without
// building the layout, whose SFC order costs O(B log B) in the global
// block count B.
func Check(name string, rankDims, blockDims [3]int, nranks int) error {
	for a := 0; a < 3; a++ {
		if rankDims[a] <= 0 || blockDims[a] <= 0 {
			return fmt.Errorf("layout: invalid dims (ranks %v, blocks %v)", rankDims, blockDims)
		}
	}
	if want := rankDims[0] * rankDims[1] * rankDims[2]; want != nranks {
		return fmt.Errorf("layout: rank dims %v incompatible with world size %d", rankDims, nranks)
	}
	switch name {
	case "", Cartesian, "hilbert", "morton", "rowmajor":
		return nil
	}
	return fmt.Errorf("layout: unknown layout %q (want cartesian, hilbert, morton or rowmajor)", name)
}

// MustNew is New for statically valid configurations.
func MustNew(name string, rankDims, blockDims [3]int, nranks int, periodic [3]bool) *Layout {
	l, err := New(name, rankDims, blockDims, nranks, periodic)
	if err != nil {
		panic(err)
	}
	return l
}

// CanRebalance reports whether the layout supports moving its cut points
// (true for SFC layouts; the cartesian layout has no cuts to move).
func (l *Layout) CanRebalance() bool { return l.curve != nil }

// WithCuts returns a copy of an SFC layout with the given curve cut points
// (len NRanks+1, monotone, spanning the full curve). The curve, order and
// coordinate tables are shared — cut points are the only mutable part of a
// layout, which is exactly what block migration exploits.
func (l *Layout) WithCuts(cuts []int) *Layout {
	if !l.CanRebalance() {
		panic("layout: cartesian layout has no curve cuts")
	}
	if len(cuts) != l.NRanks+1 || cuts[0] != 0 || cuts[l.NRanks] != len(l.order) {
		panic(fmt.Sprintf("layout: invalid cuts %v for %d blocks over %d ranks", cuts, len(l.order), l.NRanks))
	}
	for r := 0; r < l.NRanks; r++ {
		if cuts[r+1] <= cuts[r] {
			panic(fmt.Sprintf("layout: empty chunk %d in cuts %v", r, cuts))
		}
	}
	nl := *l
	nl.Cuts = append([]int(nil), cuts...)
	return &nl
}

// TotalBlocks returns the global block count.
func (l *Layout) TotalBlocks() int { return l.GB[0] * l.GB[1] * l.GB[2] }

// InBox reports whether block coordinates lie inside the global box.
func (l *Layout) InBox(c [3]int) bool {
	return c[0] >= 0 && c[0] < l.GB[0] && c[1] >= 0 && c[1] < l.GB[1] && c[2] >= 0 && c[2] < l.GB[2]
}

// Owner returns the rank owning block c. Every rank computes the identical
// answer from its own copy of the layout.
func (l *Layout) Owner(c [3]int) int {
	if !l.InBox(c) {
		panic(fmt.Sprintf("layout: block %v outside global box %v", c, l.GB))
	}
	if l.curve == nil {
		rx, ry, rz := c[0]/l.BlockDims[0], c[1]/l.BlockDims[1], c[2]/l.BlockDims[2]
		return (rz*l.RankDims[1]+ry)*l.RankDims[0] + rx
	}
	p := l.pos[l.LinearID(c)]
	// Binary search the cut table: the rank whose [Cuts[r], Cuts[r+1])
	// chunk holds p.
	lo, hi := 0, l.NRanks-1
	for lo < hi {
		mid := (lo + hi) / 2
		if l.Cuts[mid+1] <= p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Blocks returns the block coordinates rank owns, in the exact order the
// rank-local grid allocates and every on-disk payload (checkpoint, dump)
// serializes. For the cartesian layout this is the historical order — the
// rank's own box enumerated along sfc.ForBox(BlockDims) — so existing
// single- and multi-rank configurations keep their bitwise file layouts.
// For SFC layouts it is the rank's contiguous chunk of the global curve.
func (l *Layout) Blocks(rank int) [][3]int {
	if rank < 0 || rank >= l.NRanks {
		panic(fmt.Sprintf("layout: rank %d outside world of %d", rank, l.NRanks))
	}
	if l.curve == nil {
		rx := rank % l.RankDims[0]
		ry := (rank / l.RankDims[0]) % l.RankDims[1]
		rz := rank / (l.RankDims[0] * l.RankDims[1])
		bd := l.BlockDims
		local := sfc.Enumerate(sfc.ForBox(bd[0], bd[1], bd[2]), bd[0], bd[1], bd[2])
		out := make([][3]int, len(local))
		for i, c := range local {
			out[i] = [3]int{rx*bd[0] + c[0], ry*bd[1] + c[1], rz*bd[2] + c[2]}
		}
		return out
	}
	return append([][3]int(nil), l.order[l.Cuts[rank]:l.Cuts[rank+1]]...)
}

// LinearID returns the canonical, layout-independent identifier of a block:
// its row-major position in the global box. Message tags, checkpoint block
// tables and the canonical reduction order all key on it, so two ranks with
// different layouts (or the same rank before and after a migration) always
// agree on what a block is called.
func (l *Layout) LinearID(c [3]int) int64 {
	if !l.InBox(c) {
		panic(fmt.Sprintf("layout: block %v outside global box %v", c, l.GB))
	}
	return int64((c[2]*l.GB[1]+c[1])*l.GB[0] + c[0])
}

// CoordsOf inverts LinearID.
func (l *Layout) CoordsOf(id int64) [3]int {
	if id < 0 || id >= int64(l.TotalBlocks()) {
		panic(fmt.Sprintf("layout: block id %d outside global box %v", id, l.GB))
	}
	i := int(id)
	x := i % l.GB[0]
	i /= l.GB[0]
	return [3]int{x, i % l.GB[1], i / l.GB[1]}
}

// Neighbor returns the block adjacent to c through face f, wrapping on
// periodic axes. ok is false when the face is a non-periodic domain
// boundary (the ghost cells come from the physical BC instead).
func (l *Layout) Neighbor(c [3]int, f grid.Face) (nc [3]int, ok bool) {
	nc = c
	a := f.Axis()
	if f.IsHigh() {
		nc[a]++
	} else {
		nc[a]--
	}
	if nc[a] < 0 || nc[a] >= l.GB[a] {
		if !l.Periodic[a] {
			return nc, false
		}
		nc[a] = (nc[a] + l.GB[a]) % l.GB[a]
	}
	return nc, true
}

// Diff counts the blocks whose owner differs between two layouts over the
// same global box — the global migration volume of a cut move.
func Diff(a, b *Layout) int {
	if a.GB != b.GB {
		panic(fmt.Sprintf("layout: diff across different boxes %v vs %v", a.GB, b.GB))
	}
	moved := 0
	for z := 0; z < a.GB[2]; z++ {
		for y := 0; y < a.GB[1]; y++ {
			for x := 0; x < a.GB[0]; x++ {
				c := [3]int{x, y, z}
				if a.Owner(c) != b.Owner(c) {
					moved++
				}
			}
		}
	}
	return moved
}
