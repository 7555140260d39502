// Package viz renders scalar fields of the simulation to NetPBM images —
// the reproduction's stand-in for the paper's volume renderings (Figures
// 4, 6, 8: pressure from translucent blue through yellow to red, with the
// liquid/vapor interface in white).
package viz

import (
	"fmt"
	"math"

	"cubism/internal/dump"
)

// RGB is one 8-bit color.
type RGB struct{ R, G, B uint8 }

// Pressure maps a normalized value in [0,1] through the paper's volume
// rendering palette: low pressure translucent blue, mid yellow, high red.
func Pressure(t float64) RGB {
	t = clamp01(t)
	switch {
	case t < 0.5:
		// blue (40,80,200) -> yellow (240,220,60)
		u := t / 0.5
		return lerp(RGB{40, 80, 200}, RGB{240, 220, 60}, u)
	default:
		// yellow -> red (220,30,20)
		u := (t - 0.5) / 0.5
		return lerp(RGB{240, 220, 60}, RGB{220, 30, 20}, u)
	}
}

// Grayscale maps [0,1] to gray levels.
func Grayscale(t float64) RGB {
	v := uint8(clamp01(t) * 255)
	return RGB{v, v, v}
}

func clamp01(t float64) float64 {
	if t < 0 || math.IsNaN(t) {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}

func lerp(a, b RGB, u float64) RGB {
	f := func(x, y uint8) uint8 { return uint8(float64(x) + u*(float64(y)-float64(x))) }
	return RGB{f(a.R, b.R), f(a.G, b.G), f(a.B, b.B)}
}

// Plane is a 2D scalar field.
type Plane struct {
	W, H int
	Data []float64 // row-major, Data[y*W+x]
}

// MinMax returns the value range (ignoring non-finite entries).
func (p Plane) MinMax() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range p.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return
}

// PPM renders the plane through a colormap into a binary PPM (P6) image,
// normalizing to the plane's own range. An optional isoline value draws
// white pixels where the field crosses it (the interface overlay of the
// paper's figures).
func (p Plane) PPM(cmap func(float64) RGB, iso float64, drawIso bool) []byte {
	lo, hi := p.MinMax()
	span := hi - lo
	if span == 0 {
		span = 1
	}
	out := make([]byte, 0, 32+3*p.W*p.H)
	out = append(out, fmt.Sprintf("P6\n%d %d\n255\n", p.W, p.H)...)
	at := func(x, y int) float64 { return p.Data[y*p.W+x] }
	for y := 0; y < p.H; y++ {
		for x := 0; x < p.W; x++ {
			v := at(x, y)
			c := cmap((v - lo) / span)
			if drawIso && crossesIso(p, x, y, iso) {
				c = RGB{255, 255, 255}
			}
			out = append(out, c.R, c.G, c.B)
		}
	}
	return out
}

// crossesIso reports whether the isoline passes between (x,y) and one of
// its right/down neighbors.
func crossesIso(p Plane, x, y int, iso float64) bool {
	v := p.Data[y*p.W+x]
	if x+1 < p.W {
		if (v-iso)*(p.Data[y*p.W+x+1]-iso) <= 0 && v != p.Data[y*p.W+x+1] {
			return true
		}
	}
	if y+1 < p.H {
		if (v-iso)*(p.Data[(y+1)*p.W+x]-iso) <= 0 && v != p.Data[(y+1)*p.W+x] {
			return true
		}
	}
	return false
}

// Volume is a reassembled global scalar field.
type Volume struct {
	NX, NY, NZ int
	Data       []float64 // Data[(z*NY+y)*NX+x]
}

// At returns the value at global cell (x,y,z).
func (v *Volume) At(x, y, z int) float64 { return v.Data[(z*v.NY+y)*v.NX+x] }

// Slice extracts the plane normal to axis (0=x,1=y,2=z) at the given index.
func (v *Volume) Slice(axis, index int) Plane {
	switch axis {
	case 0:
		p := Plane{W: v.NY, H: v.NZ, Data: make([]float64, v.NY*v.NZ)}
		for z := 0; z < v.NZ; z++ {
			for y := 0; y < v.NY; y++ {
				p.Data[z*v.NY+y] = v.At(index, y, z)
			}
		}
		return p
	case 1:
		p := Plane{W: v.NX, H: v.NZ, Data: make([]float64, v.NX*v.NZ)}
		for z := 0; z < v.NZ; z++ {
			for x := 0; x < v.NX; x++ {
				p.Data[z*v.NX+x] = v.At(x, index, z)
			}
		}
		return p
	default:
		p := Plane{W: v.NX, H: v.NY, Data: make([]float64, v.NX*v.NY)}
		for y := 0; y < v.NY; y++ {
			for x := 0; x < v.NX; x++ {
				p.Data[y*v.NX+x] = v.At(x, y, index)
			}
		}
		return p
	}
}

// Assemble reconstructs the global field from a dump's per-rank block
// fields, placing each block by the canonical linear id the header's rank
// table records for it — the one block order every writer states, whatever
// its layout, rank count or mid-run rebalancing. A pre-layout header
// without block ids is refused.
func Assemble(hdr dump.Header, fields [][][]float32) (*Volume, error) {
	n := hdr.BlockSize
	rb := hdr.BlockDims
	rd := hdr.RankDims
	gb := [3]int{rd[0] * rb[0], rd[1] * rb[1], rd[2] * rb[2]} // global block box
	vol := &Volume{
		NX: gb[0] * n,
		NY: gb[1] * n,
		NZ: gb[2] * n,
	}
	vol.Data = make([]float64, vol.NX*vol.NY*vol.NZ)
	if len(fields) != rd[0]*rd[1]*rd[2] || len(hdr.Ranks) != len(fields) {
		return nil, fmt.Errorf("viz: %d rank payloads and %d header entries for %v rank grid", len(fields), len(hdr.Ranks), rd)
	}
	place := func(blk []float32, bx, by, bz int) {
		baseX, baseY, baseZ := bx*n, by*n, bz*n
		for z := 0; z < n; z++ {
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					vol.Data[((baseZ+z)*vol.NY+baseY+y)*vol.NX+baseX+x] =
						float64(blk[(z*n+y)*n+x])
				}
			}
		}
	}
	total := gb[0] * gb[1] * gb[2]
	seen := make([]bool, total)
	placed := 0
	for rank, blocks := range fields {
		ids := hdr.Ranks[rank].BlockIDs
		if ids == nil && len(blocks) > 0 {
			return nil, fmt.Errorf("viz: rank %d: pre-layout dump without block ids, no longer readable", rank)
		}
		if len(blocks) != len(ids) {
			return nil, fmt.Errorf("viz: rank %d has %d blocks but %d block ids", rank, len(blocks), len(ids))
		}
		for bi, id := range ids {
			if id < 0 || id >= int64(total) || seen[id] {
				return nil, fmt.Errorf("viz: rank %d block id %d outside %v box or repeated", rank, id, gb)
			}
			seen[id] = true
			placed++
			bx := int(id) % gb[0]
			by := (int(id) / gb[0]) % gb[1]
			bz := int(id) / (gb[0] * gb[1])
			place(blocks[bi], bx, by, bz)
		}
	}
	if placed != total {
		return nil, fmt.Errorf("viz: block-id tables cover %d of %d blocks", placed, total)
	}
	return vol, nil
}
