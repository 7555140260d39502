// Package sfc provides 3D space-filling curves for block reindexing.
//
// CUBISM-MPCF groups cells into 3D blocks and reindexes the blocks with a
// space-filling curve to increase spatial locality of the block sweep (paper
// §5, "Data reordering ... reindexing the blocks with a space-filling
// curve"). This package implements the Morton (Z-order) curve and the
// Hilbert curve, both with exact inverses, for domains of power-of-two edge
// length, plus a row-major fallback for arbitrary box shapes.
package sfc

import (
	"cmp"
	"slices"
)

// Curve maps 3D block coordinates to a linear index and back.
type Curve interface {
	// Index returns the position of block (x,y,z) along the curve.
	Index(x, y, z int) uint64
	// Coords inverts Index.
	Coords(idx uint64) (x, y, z int)
	// Name identifies the curve.
	Name() string
}

// Morton is the Z-order curve over a 2^Bits-edge cube.
type Morton struct {
	// Bits is the number of bits per dimension (edge length 2^Bits).
	Bits uint
}

// Name implements Curve.
func (Morton) Name() string { return "morton" }

// spread3 inserts two zero bits between every bit of x (lowest Bits bits).
func spread3(x uint64, bits uint) uint64 {
	var r uint64
	for i := uint(0); i < bits; i++ {
		r |= ((x >> i) & 1) << (3 * i)
	}
	return r
}

// compact3 inverts spread3.
func compact3(x uint64, bits uint) uint64 {
	var r uint64
	for i := uint(0); i < bits; i++ {
		r |= ((x >> (3 * i)) & 1) << i
	}
	return r
}

// Index implements Curve.
func (m Morton) Index(x, y, z int) uint64 {
	return spread3(uint64(x), m.Bits) | spread3(uint64(y), m.Bits)<<1 | spread3(uint64(z), m.Bits)<<2
}

// Coords implements Curve.
func (m Morton) Coords(idx uint64) (x, y, z int) {
	return int(compact3(idx, m.Bits)), int(compact3(idx>>1, m.Bits)), int(compact3(idx>>2, m.Bits))
}

// Hilbert is the 3D Hilbert curve over a 2^Bits-edge cube. It offers better
// locality than Morton: successive indices are always face-adjacent blocks.
type Hilbert struct {
	Bits uint
}

// Name implements Curve.
func (Hilbert) Name() string { return "hilbert" }

// Index implements Curve using the Butz/Skilling transpose algorithm.
func (h Hilbert) Index(x, y, z int) uint64 {
	X := [3]uint64{uint64(x), uint64(y), uint64(z)}
	b := h.Bits
	// Inverse undo excess work (Skilling's AxestoTranspose).
	M := uint64(1) << (b - 1)
	for Q := M; Q > 1; Q >>= 1 {
		P := Q - 1
		for i := 0; i < 3; i++ {
			if X[i]&Q != 0 {
				X[0] ^= P // invert
			} else { // exchange
				t := (X[0] ^ X[i]) & P
				X[0] ^= t
				X[i] ^= t
			}
		}
	}
	// Gray encode
	for i := 1; i < 3; i++ {
		X[i] ^= X[i-1]
	}
	var t uint64
	for Q := M; Q > 1; Q >>= 1 {
		if X[2]&Q != 0 {
			t ^= Q - 1
		}
	}
	for i := 0; i < 3; i++ {
		X[i] ^= t
	}
	// Interleave the transposed bits into a single index: bit (3*k+d) of the
	// result comes from bit k of axis (2-d) at the appropriate position.
	var idx uint64
	for k := uint(0); k < b; k++ {
		for d := 0; d < 3; d++ {
			bit := (X[d] >> (b - 1 - k)) & 1
			idx = (idx << 1) | bit
		}
	}
	return idx
}

// Coords implements Curve (Skilling's TransposetoAxes).
func (h Hilbert) Coords(idx uint64) (x, y, z int) {
	b := h.Bits
	var X [3]uint64
	// De-interleave.
	for k := uint(0); k < b; k++ {
		for d := 0; d < 3; d++ {
			bit := (idx >> (3*(b-1-k) + uint(2-d))) & 1
			X[d] |= bit << (b - 1 - k)
		}
	}
	N := uint64(2) << (b - 1)
	// Gray decode by H ^ (H/2)
	t := X[2] >> 1
	for i := 2; i > 0; i-- {
		X[i] ^= X[i-1]
	}
	X[0] ^= t
	// Undo excess work
	for Q := uint64(2); Q != N; Q <<= 1 {
		P := Q - 1
		for i := 2; i >= 0; i-- {
			if X[i]&Q != 0 {
				X[0] ^= P
			} else {
				tt := (X[0] ^ X[i]) & P
				X[0] ^= tt
				X[i] ^= tt
			}
		}
	}
	return int(X[0]), int(X[1]), int(X[2])
}

// RowMajor is the trivial curve for an arbitrary (possibly non-cubic,
// non-power-of-two) box of NX x NY x NZ blocks.
type RowMajor struct {
	NX, NY, NZ int
}

// Name implements Curve.
func (RowMajor) Name() string { return "rowmajor" }

// Index implements Curve.
func (r RowMajor) Index(x, y, z int) uint64 {
	return uint64((z*r.NY+y)*r.NX + x)
}

// Coords implements Curve.
func (r RowMajor) Coords(idx uint64) (x, y, z int) {
	i := int(idx)
	x = i % r.NX
	i /= r.NX
	y = i % r.NY
	z = i / r.NY
	return
}

// ForBox returns the best curve for an NX x NY x NZ box of blocks: a Hilbert
// curve when the box is a power-of-two cube (the production configuration,
// 32 blocks per dimension), otherwise row-major order.
func ForBox(nx, ny, nz int) Curve {
	if nx == ny && ny == nz && nx > 0 && nx&(nx-1) == 0 && nx > 1 {
		bits := uint(0)
		for 1<<bits < nx {
			bits++
		}
		return Hilbert{Bits: bits}
	}
	return RowMajor{NX: nx, NY: ny, NZ: nz}
}

// Enumerate returns the block coordinates of an nx x ny x nz box in curve
// order: every block's Index, sorted (ties, which no bijective curve has,
// fall back to the coordinates). A curve defined on the enclosing
// power-of-two cube orders any smaller box this way, so the cost is
// O(B log B) in the box's B blocks, whatever its aspect ratio.
func Enumerate(c Curve, nx, ny, nz int) [][3]int {
	type key struct {
		idx uint64
		p   [3]int
	}
	keys := make([]key, 0, nx*ny*nz)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				keys = append(keys, key{c.Index(x, y, z), [3]int{x, y, z}})
			}
		}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := cmp.Compare(a.idx, b.idx); c != 0 {
			return c
		}
		return slices.Compare(a.p[:], b.p[:])
	})
	out := make([][3]int, len(keys))
	for i, k := range keys {
		out[i] = k.p
	}
	return out
}
