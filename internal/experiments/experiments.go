// Package experiments regenerates every table and figure of the paper's
// evaluation (§7-8). Each experiment prints the same rows/series the paper
// reports, next to the paper's published values where applicable, so the
// *shape* of the results (who wins, by what factor, where the bottleneck
// sits) can be compared directly.
//
// The hardware substitutions are documented in DESIGN.md: kernels run on
// the host CPU instead of Blue Gene/Q, so absolute GFLOP/s differ; rack
// scaling (Tables 5-6) combines host-measured kernel efficiency with the
// paper's machine models (roofline + analytic communication volumes); the
// QPX speedups (Table 7) are reported both as measured on the 4-lane model
// (serial lanes) and as the modeled hardware-SIMD projection.
package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"cubism/internal/cloud"
	"cubism/internal/core"
	"cubism/internal/grid"
	"cubism/internal/physics"
)

// blockEdge is the default benchmark block size. The paper's production
// value is 32; 16 keeps the harness fast while preserving every ratio (set
// -n 32 in cmd/mpcf-bench for the production size).
const blockEdge = 16

// testField is a smooth but fully 3D two-phase-like state that exercises
// every code path of the kernels.
func testField(x, y, z float64) physics.Prim {
	s := math.Sin(2 * math.Pi * x)
	c := math.Cos(2 * math.Pi * y)
	t := math.Sin(2 * math.Pi * z)
	return physics.Prim{
		Rho: 500 + 400*s*c,
		U:   10 * c * t,
		V:   -5 * s * t,
		W:   7 * s * c,
		P:   50e5 + 30e5*c*t,
		G:   1.5 + 1.0*s*t,
		Pi:  2e8 + 1e8*c,
	}
}

// fillGrid initializes a grid from a primitive field.
func fillGrid(g *grid.Grid, f func(x, y, z float64) physics.Prim) {
	n := g.N
	for _, b := range g.Blocks {
		for iz := 0; iz < n; iz++ {
			for iy := 0; iy < n; iy++ {
				for ix := 0; ix < n; ix++ {
					x, y, z := g.CellCenter(b.X*n+ix, b.Y*n+iy, b.Z*n+iz)
					c := f(x, y, z).ToCons()
					cell := b.At(ix, iy, iz)
					cell[physics.QR] = float32(c.R)
					cell[physics.QU] = float32(c.RU)
					cell[physics.QV] = float32(c.RV)
					cell[physics.QW] = float32(c.RW)
					cell[physics.QE] = float32(c.E)
					cell[physics.QG] = float32(c.G)
					cell[physics.QP] = float32(c.Pi)
				}
			}
		}
	}
}

// cloudGrid builds a static bubble-cloud snapshot for compression
// experiments.
func cloudGrid(n, nb int, seed int64) *grid.Grid {
	bubbles, err := (cloud.Spec{
		Center: [3]float64{0.5, 0.5, 0.5},
		Radius: 0.35,
		N:      10,
		RMin:   0.05, RMax: 0.1,
		Seed: seed,
	}).Generate()
	if err != nil {
		panic(err)
	}
	f := cloud.NewField(bubbles, 0.02)
	g := grid.New(grid.Desc{N: n, NBX: nb, NBY: nb, NBZ: nb, H: 1.0 / float64(n*nb)})
	fillGrid(g, f.At)
	return g
}

// KernelRate measures one kernel's sustained GFLOP/s by repeated execution
// over at least minDuration.
func KernelRate(flopsPerCall int64, minDuration time.Duration, call func()) float64 {
	call() // warm-up
	var calls int64
	start := time.Now()
	for time.Since(start) < minDuration {
		call()
		calls++
	}
	elapsed := time.Since(start).Seconds()
	return float64(flopsPerCall*calls) / elapsed / 1e9
}

// MeasureRHS returns the sustained GFLOP/s of one RHS evaluation over a
// single block (vector or scalar, default or staged driver).
func MeasureRHS(n int, vector, staged bool, minDur time.Duration) float64 {
	g := grid.New(grid.Desc{N: n, NBX: 1, NBY: 1, NBZ: 1, H: 1.0 / float64(n)})
	fillGrid(g, testField)
	lab := grid.NewLab(n)
	lab.Load(g, grid.PeriodicBC(), g.Blocks[0])
	out := make([]float32, n*n*n*physics.NQ)
	flops := int64(n*n*n) * core.RHSFlopsPerCell(n)
	if vector {
		r := core.NewRHSVec(n)
		r.Staged = staged
		return KernelRate(flops, minDur, func() { r.Compute(lab, g.H, out) })
	}
	r := core.NewRHS(n)
	r.Staged = staged
	return KernelRate(flops, minDur, func() { r.Compute(lab, g.H, out) })
}

// MeasureDT returns the sustained GFLOP/s of the SOS kernel on one block.
func MeasureDT(n int, vector bool, minDur time.Duration) float64 {
	g := grid.New(grid.Desc{N: n, NBX: 1, NBY: 1, NBZ: 1, H: 1.0 / float64(n)})
	fillGrid(g, testField)
	data := g.Blocks[0].Data
	flops := int64(n*n*n) * core.SOSFlopsPerCell
	var sink float64
	f := func() { sink += core.MaxCharVelScalar(data) }
	if vector {
		f = func() { sink += core.MaxCharVelQPX(data) }
	}
	r := KernelRate(flops, minDur, f)
	if sink < 0 {
		panic("unreachable")
	}
	return r
}

// MeasureUP returns the sustained GFLOP/s of the UP kernel on one block.
func MeasureUP(n int, vector bool, minDur time.Duration) float64 {
	values := n * n * n * physics.NQ
	u := make([]float32, values)
	reg := make([]float32, values)
	rhs := make([]float32, values)
	for i := range u {
		u[i] = float32(i%7) + 1
		rhs[i] = float32(i%5) - 2
	}
	flops := int64(values) * core.UpdateFlopsPerValue
	f := func() { core.UpdateScalar(u, reg, rhs, -5.0/9.0, 15.0/16.0, 1e-6) }
	if vector {
		f = func() { core.UpdateQPX(u, reg, rhs, -5.0/9.0, 15.0/16.0, 1e-6) }
	}
	return KernelRate(flops, minDur, f)
}

// line writes a formatted row.
func line(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format+"\n", args...)
}

// header prints an experiment banner.
func header(w io.Writer, title string) {
	line(w, "")
	line(w, "=== %s ===", title)
}
