package grid

import (
	"fmt"

	"cubism/internal/physics"
)

// The per-cell ghost resolver: the reference Lab.Load's slab assembly is
// checked against bit for bit. It resolves every ghost cell on its own, in
// the same order the slab loader resolves a whole face.

// loadPerCell assembles block b of grid g with its ghosts under boundary
// conditions bc, one cell at a time. Interior data is row-copied. Each
// ghost cell resolves, in order: a periodic wrap of the global coordinate,
// then a reflecting/absorbing boundary condition when the cell lies beyond
// a non-periodic domain face (mirror and clamp always land back in b
// itself), then a locally owned block, and finally the per-block halo slab.
func (l *Lab) loadPerCell(g *Grid, bc BC, b *Block) {
	if b.N != l.N {
		panic("grid: lab/block size mismatch")
	}
	n, sw := l.N, StencilWidth
	// Base box-global cell coordinates of the block.
	gx, gy, gz := b.X*n, b.Y*n, b.Z*n
	cx, cy, cz := g.CellsX(), g.CellsY(), g.CellsZ()

	for iz := 0; iz < n; iz++ {
		for iy := 0; iy < n; iy++ {
			copy(l.Row(0, iy, iz, n), b.Data[((iz*n+iy)*n)*NQ:((iz*n+iy)*n+n)*NQ])
		}
	}

	// Face slabs of the cross region: exactly one of (ix,iy,iz) lies
	// outside [0,n), so exactly one global coordinate can leave the domain
	// — and it crosses the same face f the block-local coordinate does.
	fill := func(f Face, x0, x1, y0, y1, z0, z1 int) {
		for iz := z0; iz < z1; iz++ {
			for iy := y0; iy < y1; iy++ {
				for ix := x0; ix < x1; ix++ {
					dst := l.At(ix, iy, iz)
					jx, jy, jz := gx+ix, gy+iy, gz+iz
					if jx < 0 || jx >= cx || jy < 0 || jy >= cy || jz < 0 || jz >= cz {
						if bc[f] != Periodic {
							for q := 0; q < NQ; q++ {
								dst[q] = g.ghost(bc, jx, jy, jz, q)
							}
							continue
						}
						jx, jy, jz = (jx+cx)%cx, (jy+cy)%cy, (jz+cz)%cz
					}
					if nb := g.byPos[[3]int{jx / n, jy / n, jz / n}]; nb != nil {
						copy(dst, nb.At(jx%n, jy%n, jz%n))
					} else {
						copy(dst, b.haloCell(f, ix, iy, iz))
					}
				}
			}
		}
	}
	fill(XLo, -sw, 0, 0, n, 0, n)
	fill(XHi, n, n+sw, 0, n, 0, n)
	fill(YLo, 0, n, -sw, 0, 0, n)
	fill(YHi, 0, n, n, n+sw, 0, n)
	fill(ZLo, 0, n, 0, n, -sw, 0)
	fill(ZHi, 0, n, 0, n, n, n+sw)
}

// ghost resolves quantity q of cell (ix,iy,iz) where exactly one coordinate
// lies outside the global domain [0,CellsX) x [0,CellsY) x [0,CellsZ)
// through the physical boundary condition of the crossed face. The periodic
// branch reads through g.Cell and therefore requires the wrapped cell to be
// owned.
func (g *Grid) ghost(bc BC, ix, iy, iz, q int) float32 {
	f, _ := g.outFace(ix, iy, iz)
	switch bc[f] {
	case Periodic:
		nx, ny, nz := g.CellsX(), g.CellsY(), g.CellsZ()
		return g.Cell((ix+nx)%nx, (iy+ny)%ny, (iz+nz)%nz, q)
	case Reflecting:
		mx, my, mz := mirror(ix, g.CellsX()), mirror(iy, g.CellsY()), mirror(iz, g.CellsZ())
		v := g.Cell(mx, my, mz, q)
		// Flip the momentum component normal to the face.
		if q == physics.QU+f.Axis() {
			v = -v
		}
		return v
	default: // Absorbing: clamp to the nearest interior cell.
		cx, cy, cz := clamp(ix, g.CellsX()), clamp(iy, g.CellsY()), clamp(iz, g.CellsZ())
		return g.Cell(cx, cy, cz, q)
	}
}

// outFace identifies which domain face the out-of-range coordinate crosses
// and how deep beyond it the cell lies (1-based).
func (g *Grid) outFace(ix, iy, iz int) (Face, int) {
	switch {
	case ix < 0:
		return XLo, -ix
	case ix >= g.CellsX():
		return XHi, ix - g.CellsX() + 1
	case iy < 0:
		return YLo, -iy
	case iy >= g.CellsY():
		return YHi, iy - g.CellsY() + 1
	case iz < 0:
		return ZLo, -iz
	default:
		return ZHi, iz - g.CellsZ() + 1
	}
}

// mirror reflects an out-of-range coordinate about the domain face:
// -1 -> 0, -2 -> 1, n -> n-1, n+1 -> n-2.
func mirror(i, n int) int {
	if i < 0 {
		return -i - 1
	}
	if i >= n {
		return 2*n - 1 - i
	}
	return i
}

// clamp limits a coordinate to [0, n).
func clamp(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// haloCell returns the NQ quantities of ghost cell (ix,iy,iz) in block-local
// stencil coordinates (exactly one coordinate outside [0,N)) from the
// installed slab of the crossed face. It panics when no slab is installed.
func (b *Block) haloCell(f Face, ix, iy, iz int) []float32 {
	n := b.N
	var d, u, v int
	switch f {
	case XLo:
		d, u, v = -ix-1, iy, iz
	case XHi:
		d, u, v = ix-n, iy, iz
	case YLo:
		d, u, v = -iy-1, ix, iz
	case YHi:
		d, u, v = iy-n, ix, iz
	case ZLo:
		d, u, v = -iz-1, ix, iy
	case ZHi:
		d, u, v = iz-n, ix, iy
	}
	if b.halos[f] == nil {
		panic(fmt.Sprintf("grid: block (%d,%d,%d) read face %v ghost with no halo installed", b.X, b.Y, b.Z, f))
	}
	off := ((d*n+v)*n + u) * NQ
	return b.halos[f][off : off+NQ : off+NQ]
}
