package grid

import (
	"fmt"

	"cubism/internal/physics"
)

// Lab is the per-worker scratch structure that assembles one block together
// with its ghost cells before a stencil evaluation (the paper's node layer:
// "the assigned thread loads the block data and ghosts into a per-thread
// dedicated buffer"). It mirrors CUBISM's BlockLab.
//
// The buffer extends the N³ block by StencilWidth cells on each side. Only
// the face slabs of the extension are filled (the "cross" region); corner
// and edge regions are never read by the directional WENO sweeps.
type Lab struct {
	N    int       // block cells per dimension
	M    int       // buffer extent: N + 2*StencilWidth
	Data []float32 // AoS, ((lz*M+ly)*M+lx)*NQ + q
}

// NewLab allocates a lab for blocks of N³ cells.
func NewLab(n int) *Lab {
	m := n + 2*StencilWidth
	return &Lab{N: n, M: m, Data: make([]float32, m*m*m*NQ)}
}

// offset returns the float32 offset of stencil coordinates (ix,iy,iz) in
// [-StencilWidth, N+StencilWidth).
func (l *Lab) offset(ix, iy, iz int) int {
	lx, ly, lz := ix+StencilWidth, iy+StencilWidth, iz+StencilWidth
	return ((lz*l.M+ly)*l.M + lx) * NQ
}

// At returns the NQ quantities of cell (ix,iy,iz); coordinates may extend
// StencilWidth cells beyond the block in the face-slab (cross) region.
func (l *Lab) At(ix, iy, iz int) []float32 {
	off := l.offset(ix, iy, iz)
	return l.Data[off : off+NQ : off+NQ]
}

// Get returns quantity q of cell (ix,iy,iz).
func (l *Lab) Get(ix, iy, iz, q int) float32 {
	return l.Data[l.offset(ix, iy, iz)+q]
}

// Row returns the contiguous AoS row of cells (x0..x0+n-1, iy, iz).
func (l *Lab) Row(x0, iy, iz, n int) []float32 {
	off := l.offset(x0, iy, iz)
	return l.Data[off : off+n*NQ : off+n*NQ]
}

// Load assembles block b of grid g with its ghosts under boundary
// conditions bc. Interior data is row-copied. Each of the six face slabs
// then resolves its source once, in order: the neighbor block position
// across the face; its periodic wrap when that position leaves the box
// through a periodic face (the topology, not a BC fallback — a wrapped
// neighbor behaves exactly like an interior one); otherwise, beyond a
// reflecting or absorbing domain face, b itself, mirrored or clamped; then
// the locally owned block at the position; and finally the per-block halo
// slab installed by the cluster layer for a neighbor owned by another rank.
// A missing slab panics — a cluster-layer bug, never silently absorbed.
// y and z slabs copy contiguous rows of N cells, x slabs single cells; a
// reflecting face then negates the normal momentum in place.
func (l *Lab) Load(g *Grid, bc BC, b *Block) {
	if b.N != l.N {
		panic("grid: lab/block size mismatch")
	}
	n := l.N
	for iz := 0; iz < n; iz++ {
		for iy := 0; iy < n; iy++ {
			copy(l.Row(0, iy, iz, n), b.Data[(iz*n+iy)*n*NQ:])
		}
	}
	for f := XLo; f <= ZHi; f++ {
		l.loadFace(g, bc, b, f)
	}
}

// loadFace fills the StencilWidth ghost layers beyond face f of block b.
// Ghost layer k (k = 0 adjacent to the face) copies the N×N tangent plane
// of the source (a block's data or the halo slab) starting at data[s0+k*ds],
// whose cells lie su apart along the lower tangent axis and sv apart along
// the higher one.
func (l *Lab) loadFace(g *Grid, bc BC, b *Block, f Face) {
	n, m, a := l.N, l.M, f.Axis()
	// Float32 strides of the x, y, z axes in a block and in the lab.
	bs := [3]int{NQ, n * NQ, n * n * NQ}
	ls := [3]int{NQ, m * NQ, m * m * NQ}
	tan := [3][2]int{{1, 2}, {0, 2}, {0, 1}}[a]

	// out steps away from b along the axis; inner is b's plane at the face.
	out, inner := -1, 0
	if f.IsHigh() {
		out, inner = 1, n-1
	}
	pos, box := [3]int{b.X, b.Y, b.Z}, [3]int{g.NBX, g.NBY, g.NBZ}
	pos[a] += out
	src := b
	p0, dp := inner, -out // mirror: layer k reads b's plane inner-out*k
	flip := false
	switch {
	case pos[a] >= 0 && pos[a] < box[a] || bc[f] == Periodic:
		pos[a] = (pos[a] + box[a]) % box[a]
		src = g.byPos[pos]
		p0, dp = n-1-inner, out
	case bc[f] == Reflecting:
		flip = true
	default: // absorbing: every layer clamps to b's face plane
		dp = 0
	}
	var data []float32
	s0, ds, su, sv := p0*bs[a], dp*bs[a], bs[tan[0]], bs[tan[1]]
	switch {
	case src != nil:
		data = src.Data
	case b.halos[f] == nil:
		panic(fmt.Sprintf("grid: block (%d,%d,%d) read face %v ghost with no halo installed", b.X, b.Y, b.Z, f))
	default: // remote neighbor: the slab layout is ((d*N+v)*N+u)*NQ
		data = b.halos[f]
		s0, ds, su, sv = 0, n*n*NQ, NQ, n*NQ
	}

	// Ghost layer 0 sits at lab coordinate inner+out along the axis.
	lu, lv := ls[tan[0]], ls[tan[1]]
	d0, dd := l.offset(0, 0, 0)+(inner+out)*ls[a], out*ls[a]
	if a == 0 {
		// x slabs: the StencilWidth ghost cells of each lab row, cell by cell.
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				sc, dc := s0+j*sv+i*su, d0+j*lv+i*lu
				for k := 0; k < StencilWidth; k++ {
					cell := (*[NQ]float32)(l.Data[dc+k*dd:])
					*cell = *(*[NQ]float32)(data[sc+k*ds:])
					if flip {
						cell[physics.QU] = -cell[physics.QU]
					}
				}
			}
		}
		return
	}
	for k := 0; k < StencilWidth; k++ {
		for j := 0; j < n; j++ {
			sr, dr := s0+k*ds+j*sv, d0+k*dd+j*lv
			copy(l.Data[dr:dr+n*NQ], data[sr:])
			if flip {
				for i := dr + physics.QU + a; i < dr+n*NQ; i += NQ {
					l.Data[i] = -l.Data[i]
				}
			}
		}
	}
}
