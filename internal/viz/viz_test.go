package viz

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"cubism/internal/dump"
)

func TestColormapEndpoints(t *testing.T) {
	lo := Pressure(0)
	hi := Pressure(1)
	if lo.B < lo.R {
		t.Errorf("low pressure should be blue-dominant: %+v", lo)
	}
	if hi.R < hi.B {
		t.Errorf("high pressure should be red-dominant: %+v", hi)
	}
	mid := Pressure(0.5)
	if mid.R < 200 || mid.G < 200 {
		t.Errorf("mid pressure should be yellow: %+v", mid)
	}
}

func TestColormapClamps(t *testing.T) {
	for _, v := range []float64{-1, 2, math.NaN()} {
		c := Pressure(v)
		_ = c // must not panic; NaN maps to the low end
	}
	if Pressure(math.NaN()) != Pressure(0) {
		t.Error("NaN should map like 0")
	}
}

func TestPlanePPMFormat(t *testing.T) {
	p := Plane{W: 4, H: 2, Data: []float64{0, 1, 2, 3, 4, 5, 6, 7}}
	img := p.PPM(Grayscale, 0, false)
	want := []byte("P6\n4 2\n255\n")
	if !bytes.HasPrefix(img, want) {
		t.Fatalf("bad PPM header: %q", img[:12])
	}
	if len(img) != len(want)+3*4*2 {
		t.Fatalf("image size %d", len(img))
	}
	// First pixel is the minimum (black), last the maximum (white).
	body := img[len(want):]
	if body[0] != 0 || body[len(body)-1] != 255 {
		t.Errorf("normalization wrong: first %d last %d", body[0], body[len(body)-1])
	}
}

func TestIsolineMarked(t *testing.T) {
	// A vertical step: the isoline at 0.5 must mark the transition column.
	p := Plane{W: 4, H: 1, Data: []float64{0, 0, 1, 1}}
	img := p.PPM(func(float64) RGB { return RGB{} }, 0.5, true)
	hdr := len("P6\n4 1\n255\n")
	// Pixel 1 crosses to pixel 2.
	if img[hdr+3] != 255 {
		t.Errorf("isoline not marked at crossing: % d", img[hdr:])
	}
	if img[hdr] != 0 {
		t.Errorf("isoline marked away from crossing")
	}
}

func TestVolumeSlices(t *testing.T) {
	v := &Volume{NX: 2, NY: 3, NZ: 4}
	v.Data = make([]float64, 2*3*4)
	for z := 0; z < 4; z++ {
		for y := 0; y < 3; y++ {
			for x := 0; x < 2; x++ {
				v.Data[(z*3+y)*2+x] = float64(x + 10*y + 100*z)
			}
		}
	}
	pz := v.Slice(2, 3)
	if pz.W != 2 || pz.H != 3 || pz.Data[1*2+1] != 1+10+300 {
		t.Errorf("z-slice wrong: %+v", pz)
	}
	px := v.Slice(0, 1)
	if px.W != 3 || px.H != 4 || px.Data[2*3+1] != 1+10+200 {
		t.Errorf("x-slice wrong: %+v", px)
	}
	py := v.Slice(1, 2)
	if py.W != 2 || py.H != 4 || py.Data[3*2+0] != 0+20+300 {
		t.Errorf("y-slice wrong: %+v", py)
	}
}

func TestAssembleSingleRank(t *testing.T) {
	// One rank, 2x2x2 blocks of 8³: fill block fields with their global
	// coordinates, list them in a scrambled order with their canonical ids
	// and check the assembly places every block by its id.
	n := 8
	ids := []int64{5, 0, 7, 2, 6, 1, 3, 4}
	hdr := dump.Header{
		BlockSize: n,
		RankDims:  [3]int{1, 1, 1},
		BlockDims: [3]int{2, 2, 2},
		Ranks:     []dump.RankEntry{{Blocks: len(ids), BlockIDs: ids}},
	}
	fields := make([][][]float32, 1)
	blocks := make([][]float32, len(ids))
	for bi, id := range ids {
		c := [3]int{int(id) % 2, int(id) / 2 % 2, int(id) / 4}
		blk := make([]float32, n*n*n)
		for z := 0; z < n; z++ {
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					gx, gy, gz := c[0]*n+x, c[1]*n+y, c[2]*n+z
					blk[(z*n+y)*n+x] = float32(gx + 100*gy + 10000*gz)
				}
			}
		}
		blocks[bi] = blk
	}
	fields[0] = blocks
	vol, err := Assemble(hdr, fields)
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range [][3]int{{0, 0, 0}, {15, 3, 7}, {8, 8, 8}, {1, 15, 9}} {
		want := float64(probe[0] + 100*probe[1] + 10000*probe[2])
		if got := vol.At(probe[0], probe[1], probe[2]); got != want {
			t.Errorf("At%v = %g, want %g", probe, got, want)
		}
	}
}

// TestAssembleRefusesDumpWithoutIDs: a pre-layout header, whose block order
// only the writer's curve knew, is refused by name rather than guessed at.
func TestAssembleRefusesDumpWithoutIDs(t *testing.T) {
	hdr := dump.Header{
		BlockSize: 8,
		RankDims:  [3]int{1, 1, 1},
		BlockDims: [3]int{1, 1, 2},
		Ranks:     []dump.RankEntry{{Blocks: 2}},
	}
	fields := [][][]float32{{make([]float32, 512), make([]float32, 512)}}
	_, err := Assemble(hdr, fields)
	if err == nil || !strings.Contains(err.Error(), "without block ids") {
		t.Fatalf("pre-layout header: err = %v, want a refusal naming the missing block ids", err)
	}
	hdr.Ranks[0].BlockIDs = []int64{1, 1}
	if _, err := Assemble(hdr, fields); err == nil {
		t.Error("repeated block id accepted")
	}
}

func TestAssembleRejectsBadShape(t *testing.T) {
	hdr := dump.Header{BlockSize: 8, RankDims: [3]int{2, 1, 1}, BlockDims: [3]int{1, 1, 1}}
	if _, err := Assemble(hdr, make([][][]float32, 1)); err == nil {
		t.Error("expected rank-count mismatch error")
	}
}
