// Package grid implements the block-structured uniform-resolution grid of
// CUBISM-MPCF (paper §5, Figure 2).
//
// Computational elements are grouped into 3D blocks of contiguous memory in
// AoS format (one cell = NQ consecutive float32 values), and the blocks are
// reindexed with a space-filling curve. The descriptor spans the global box
// of NBX x NBY x NBZ blocks of N³ cells each; a grid holds either the whole
// box (New, the single-rank case) or an arbitrary owned subset of it
// (NewPartial, the cluster layer's share under a layout). Ghost information
// needed by the WENO stencil is assembled per block into a Lab scratch
// structure from locally owned neighbor blocks, the physical boundary
// conditions, or the per-block halo slabs received from the owning ranks.
package grid

import (
	"fmt"

	"cubism/internal/physics"
	"cubism/internal/sfc"
)

// NQ re-exports the number of flow quantities per cell.
const NQ = physics.NQ

// StencilWidth is the one-sided ghost width required by the fifth-order
// WENO reconstruction (3 cells).
const StencilWidth = 3

// Desc describes the geometry of the block box a grid indexes into. For a
// full-box grid (New) every block of the box is present; for a partial grid
// (NewPartial) the box is the global domain and the grid holds only the
// owned subset.
type Desc struct {
	N             int        // cells per dimension per block (32 in production)
	NBX, NBY, NBZ int        // blocks per dimension of the (global) box
	H             float64    // uniform cell spacing
	Origin        [3]float64 // physical coordinates of the box's low corner
}

// CellsX returns the box cell count in x.
func (d Desc) CellsX() int { return d.N * d.NBX }

// CellsY returns the box cell count in y.
func (d Desc) CellsY() int { return d.N * d.NBY }

// CellsZ returns the box cell count in z.
func (d Desc) CellsZ() int { return d.N * d.NBZ }

// Cells returns the total box cell count. On a partial grid this is the
// global count; Grid.Cells shadows it with the owned count.
func (d Desc) Cells() int { return d.CellsX() * d.CellsY() * d.CellsZ() }

// Blocks returns the total box block count.
func (d Desc) Blocks() int { return d.NBX * d.NBY * d.NBZ }

// CellCenter returns the physical coordinates of the center of box-global
// cell (ix,iy,iz).
func (d Desc) CellCenter(ix, iy, iz int) (x, y, z float64) {
	x = d.Origin[0] + (float64(ix)+0.5)*d.H
	y = d.Origin[1] + (float64(iy)+0.5)*d.H
	z = d.Origin[2] + (float64(iz)+0.5)*d.H
	return
}

// Block is one N³ tile of cells stored as a single AoS allocation.
// Data layout: ((iz*N+iy)*N+ix)*NQ + q.
type Block struct {
	X, Y, Z int // block coordinates within the (global) box
	N       int // cells per dimension
	Data    []float32

	// halos are the per-face ghost slabs installed by the cluster layer
	// when the face neighbor is owned by another rank; nil faces resolve
	// through locally owned blocks or the boundary conditions.
	halos [6][]float32
}

// At returns a pointer to the NQ quantities of cell (ix,iy,iz).
func (b *Block) At(ix, iy, iz int) []float32 {
	off := ((iz*b.N+iy)*b.N + ix) * NQ
	return b.Data[off : off+NQ : off+NQ]
}

// Get returns quantity q of cell (ix,iy,iz).
func (b *Block) Get(ix, iy, iz, q int) float32 {
	return b.Data[((iz*b.N+iy)*b.N+ix)*NQ+q]
}

// Set assigns quantity q of cell (ix,iy,iz).
func (b *Block) Set(ix, iy, iz, q int, v float32) {
	b.Data[((iz*b.N+iy)*b.N+ix)*NQ+q] = v
}

// Grid is a rank-local collection of blocks in space-filling-curve (or
// layout-assigned) order. A full-box grid holds every block of its Desc; a
// partial grid holds the owned subset of a larger global box.
type Grid struct {
	Desc
	Blocks []*Block          // in curve (or layout) order
	byPos  map[[3]int]*Block // box-global block coordinate lookup
}

// Face identifies one of the six domain faces.
type Face int

// Face constants; the integer value is direction*2 + (0 for low, 1 for high).
const (
	XLo Face = iota
	XHi
	YLo
	YHi
	ZLo
	ZHi
)

// Axis returns 0, 1 or 2 for x, y, z.
func (f Face) Axis() int { return int(f) / 2 }

// IsHigh reports whether the face is on the high side of its axis.
func (f Face) IsHigh() bool { return int(f)%2 == 1 }

// String implements fmt.Stringer.
func (f Face) String() string {
	return [...]string{"x-", "x+", "y-", "y+", "z-", "z+"}[f]
}

// New allocates the full box of NBX x NBY x NBZ blocks of N³ cells, ordered
// along the space-filling curve best suited to the box shape (sfc.ForBox).
func New(d Desc) *Grid {
	return NewPartial(d, sfc.Enumerate(sfc.ForBox(d.NBX, d.NBY, d.NBZ), d.NBX, d.NBY, d.NBZ))
}

// NewPartial allocates a grid holding only the listed blocks of the box
// described by d, in the given order (a curve order, or the layout's
// per-rank block enumeration). One backing allocation keeps the blocks
// contiguous in that order, which is the locality the SFC reindexing is
// after.
func NewPartial(d Desc, coords [][3]int) *Grid {
	if d.N <= 0 || d.NBX <= 0 || d.NBY <= 0 || d.NBZ <= 0 {
		panic(fmt.Sprintf("grid: invalid descriptor %+v", d))
	}
	if d.N < 2*StencilWidth {
		panic(fmt.Sprintf("grid: block size %d smaller than twice the stencil width", d.N))
	}
	g := &Grid{
		Desc:  d,
		byPos: make(map[[3]int]*Block, len(coords)),
	}
	backing := make([]float32, len(coords)*d.N*d.N*d.N*NQ)
	per := d.N * d.N * d.N * NQ
	g.Blocks = make([]*Block, 0, len(coords))
	for i, c := range coords {
		if c[0] < 0 || c[0] >= d.NBX || c[1] < 0 || c[1] >= d.NBY || c[2] < 0 || c[2] >= d.NBZ {
			panic(fmt.Sprintf("grid: block %v outside box %dx%dx%d", c, d.NBX, d.NBY, d.NBZ))
		}
		if g.byPos[c] != nil {
			panic(fmt.Sprintf("grid: block %v listed twice", c))
		}
		b := &Block{
			X: c[0], Y: c[1], Z: c[2],
			N:    d.N,
			Data: backing[i*per : (i+1)*per : (i+1)*per],
		}
		g.Blocks = append(g.Blocks, b)
		g.byPos[c] = b
	}
	return g
}

// Cells returns the cell count of the owned blocks, shadowing the promoted
// Desc.Cells (the full box) — per-rank work accounting wants the owned
// share. Use g.Desc.Cells() for the global count.
func (g *Grid) Cells() int { return len(g.Blocks) * g.N * g.N * g.N }

// BlockAt returns the block with the given box-global block coordinates, or
// nil when the block is not owned by this grid.
func (g *Grid) BlockAt(bx, by, bz int) *Block {
	return g.byPos[[3]int{bx, by, bz}]
}

// Cell returns quantity q at box-global cell coordinates, which must lie in
// an owned block.
func (g *Grid) Cell(ix, iy, iz, q int) float32 {
	b := g.byPos[[3]int{ix / g.N, iy / g.N, iz / g.N}]
	return b.Get(ix%g.N, iy%g.N, iz%g.N, q)
}

// ClearHalos drops every installed ghost slab on every owned block (faces
// resolved locally or through boundary conditions use none).
func (g *Grid) ClearHalos() {
	for _, b := range g.Blocks {
		b.ClearHalos()
	}
}

// HaloSize returns the float32 count of one face ghost slab of the block:
// StencilWidth layers of the N x N tangent plane, NQ quantities per cell.
// All six faces of a cubic block are the same size.
func (b *Block) HaloSize() int {
	return StencilWidth * b.N * b.N * NQ
}

// SetHalo installs a received ghost slab for face f of this block. Layout:
// depth-major, then v (higher tangent axis), then u (lower tangent axis),
// then quantity: ((d*N+v)*N+u)*NQ+q, where depth d=0 is the layer adjacent
// to the block.
func (b *Block) SetHalo(f Face, data []float32) {
	if len(data) != b.HaloSize() {
		panic(fmt.Sprintf("grid: halo size mismatch for face %v: got %d want %d", f, len(data), b.HaloSize()))
	}
	b.halos[f] = data
}

// ClearHalos drops the block's installed ghost slabs.
func (b *Block) ClearHalos() {
	for i := range b.halos {
		b.halos[i] = nil
	}
}

// PackFace extracts the block's StencilWidth outermost layers adjacent to
// face f in the layout expected by SetHalo on the neighboring block (depth
// d=0 is the layer closest to the shared face). It appends to dst and
// returns it.
func (b *Block) PackFace(f Face, dst []float32) []float32 {
	n := b.N
	need := b.HaloSize()
	base := len(dst)
	dst = append(dst, make([]float32, need)...)
	out := dst[base:]
	for d := 0; d < StencilWidth; d++ {
		for v := 0; v < n; v++ {
			for u := 0; u < n; u++ {
				var ix, iy, iz int
				switch f {
				case XLo:
					ix, iy, iz = d, u, v
				case XHi:
					ix, iy, iz = n-1-d, u, v
				case YLo:
					ix, iy, iz = u, d, v
				case YHi:
					ix, iy, iz = u, n-1-d, v
				case ZLo:
					ix, iy, iz = u, v, d
				case ZHi:
					ix, iy, iz = u, v, n-1-d
				}
				cell := b.At(ix, iy, iz)
				off := ((d*n+v)*n + u) * NQ
				copy(out[off:off+NQ], cell)
			}
		}
	}
	return dst
}
