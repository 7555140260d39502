package cubism

// One benchmark per table and figure of the paper's evaluation. The
// narrative harness (cmd/mpcf-bench) prints the paper-style rows; these
// testing.B entry points time the primary code path behind each experiment
// so regressions surface in `go test -bench`.
//
// Naming: BenchmarkTable<k>… / BenchmarkFig<k>… matches the experiment
// index in DESIGN.md.

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"cubism/internal/baseline"
	"cubism/internal/cloud"
	"cubism/internal/cluster"
	"cubism/internal/compress"
	"cubism/internal/core"
	"cubism/internal/grid"
	"cubism/internal/mpi"
	"cubism/internal/node"
	"cubism/internal/physics"
	"cubism/internal/roofline"
	"cubism/internal/wavelet"
)

const benchN = 16 // block edge (paper production: 32)

func benchField(x, y, z float64) physics.Prim {
	s := math.Sin(2 * math.Pi * x)
	c := math.Cos(2 * math.Pi * y)
	t := math.Sin(2 * math.Pi * z)
	return physics.Prim{
		Rho: 500 + 400*s*c,
		U:   10 * c * t, V: -5 * s * t, W: 7 * s * c,
		P: 50e5 + 30e5*c*t,
		G: 1.5 + 1.0*s*t, Pi: 2e8 + 1e8*c,
	}
}

func benchGrid(n, nb int) *grid.Grid {
	g := grid.New(grid.Desc{N: n, NBX: nb, NBY: nb, NBZ: nb, H: 1.0 / float64(n*nb)})
	for _, b := range g.Blocks {
		for iz := 0; iz < n; iz++ {
			for iy := 0; iy < n; iy++ {
				for ix := 0; ix < n; ix++ {
					x, y, z := g.CellCenter(b.X*n+ix, b.Y*n+iy, b.Z*n+iz)
					c := benchField(x, y, z).ToCons()
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
	return g
}

func setFlops(b *testing.B, flopsPerOp int64) {
	b.ReportMetric(float64(flopsPerOp)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// --- Table 3: naive vs reordered data layout ------------------------------

// BenchmarkTable3NaiveRHS times the no-reuse baseline RHS (the "naive" row).
func BenchmarkTable3NaiveRHS(b *testing.B) {
	s := baseline.New(benchN, benchN, benchN, 1.0/benchN)
	s.Init(benchField)
	cells := int64(benchN * benchN * benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RHSOnce()
	}
	b.StopTimer()
	setFlops(b, cells*core.RHSFlopsPerCell(benchN))
}

// BenchmarkTable3ReorderedRHS times the block/slice-reordered RHS.
func BenchmarkTable3ReorderedRHS(b *testing.B) {
	g := benchGrid(benchN, 1)
	lab := grid.NewLab(benchN)
	lab.Load(g, grid.PeriodicBC(), g.Blocks[0])
	r := core.NewRHS(benchN)
	out := make([]float32, benchN*benchN*benchN*physics.NQ)
	cells := int64(benchN * benchN * benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Compute(lab, g.H, out)
	}
	b.StopTimer()
	setFlops(b, cells*core.RHSFlopsPerCell(benchN))
}

// --- Table 4: compression pipeline ----------------------------------------

func benchCompress(b *testing.B, q compress.Quantity, eps float64) {
	bubbles, err := (cloud.Spec{
		Center: [3]float64{0.5, 0.5, 0.5}, Radius: 0.35, N: 8,
		RMin: 0.05, RMax: 0.1, Seed: 7,
	}).Generate()
	if err != nil {
		b.Fatal(err)
	}
	f := cloud.NewField(bubbles, 0.02)
	g := grid.New(grid.Desc{N: benchN, NBX: 2, NBY: 2, NBZ: 2, H: 1.0 / (2 * benchN)})
	fillBench(g, f.At)
	b.SetBytes(int64(g.Cells()) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := compress.Compress(g, q, compress.Options{
			Epsilon: eps, Encoder: "zlib", Workers: 4,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func fillBench(g *grid.Grid, f func(x, y, z float64) physics.Prim) {
	n := g.N
	for _, blk := range g.Blocks {
		for iz := 0; iz < n; iz++ {
			for iy := 0; iy < n; iy++ {
				for ix := 0; ix < n; ix++ {
					x, y, z := g.CellCenter(blk.X*n+ix, blk.Y*n+iy, blk.Z*n+iz)
					c := f(x, y, z).ToCons()
					cell := blk.At(ix, iy, iz)
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

// BenchmarkTable4CompressGamma times the full Γ compression pipeline.
func BenchmarkTable4CompressGamma(b *testing.B) { benchCompress(b, compress.Gamma, 1e-3) }

// BenchmarkTable4CompressPressure times the full p compression pipeline.
func BenchmarkTable4CompressPressure(b *testing.B) { benchCompress(b, compress.Pressure, 1e-2) }

// --- Table 5: full production step (cluster layer) ------------------------

// BenchmarkTable5ClusterStep times one full simulation step (DT + RK3 with
// ghost exchange and dynamic scheduling) on a single rank.
func BenchmarkTable5ClusterStep(b *testing.B) {
	world := mpi.NewWorld(1)
	world.Run(func(comm *mpi.Comm) {
		r := cluster.NewRank(comm, cluster.Config{
			RankDims:  [3]int{1, 1, 1},
			BlockDims: [3]int{2, 2, 2},
			BlockSize: benchN,
			Extent:    1,
			BC:        grid.PeriodicBC(),
			Workers:   runtime.NumCPU(),
			CFL:       0.3,
			Init:      benchField,
		})
		r.Advance() // warm-up
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Advance()
		}
		b.StopTimer()
		b.ReportMetric(float64(r.G.Cells())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpoints/s")
	})
}

// --- Table 6: node vs cluster RHS ------------------------------------------

// BenchmarkTable6NodeRHS times the node layer evaluating all blocks, no MPI.
func BenchmarkTable6NodeRHS(b *testing.B) {
	g := benchGrid(benchN, 2)
	e := node.New(g, grid.PeriodicBC(), runtime.NumCPU(), false)
	outs := make([][]float32, len(g.Blocks))
	for i := range outs {
		outs[i] = make([]float32, benchN*benchN*benchN*physics.NQ)
	}
	cells := int64(g.Cells())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ComputeRHS(g.Blocks, outs)
	}
	b.StopTimer()
	setFlops(b, cells*core.RHSFlopsPerCell(benchN))
}

// BenchmarkTable6ClusterRHS times the same evaluation including the ghost
// exchange of a single-rank cluster (periodic self-messages).
func BenchmarkTable6ClusterRHS(b *testing.B) {
	world := mpi.NewWorld(1)
	world.Run(func(comm *mpi.Comm) {
		r := cluster.NewRank(comm, cluster.Config{
			RankDims:  [3]int{1, 1, 1},
			BlockDims: [3]int{2, 2, 2},
			BlockSize: benchN,
			Extent:    1,
			BC:        grid.PeriodicBC(),
			Workers:   runtime.NumCPU(),
			CFL:       0.3,
			Init:      benchField,
		})
		cells := int64(r.G.Cells())
		r.ComputeRHSOnly()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.ComputeRHSOnly()
		}
		b.StopTimer()
		setFlops(b, cells*core.RHSFlopsPerCell(benchN))
	})
}

// --- Table 7: scalar vs vector kernels -------------------------------------

// benchRHS times r's RHS evaluation of one benchN block.
func benchRHS(b *testing.B, r interface {
	Compute(lab *grid.Lab, h float64, out []float32)
}) {
	g := benchGrid(benchN, 1)
	lab := grid.NewLab(benchN)
	lab.Load(g, grid.PeriodicBC(), g.Blocks[0])
	out := make([]float32, benchN*benchN*benchN*physics.NQ)
	cells := int64(benchN * benchN * benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Compute(lab, g.H, out)
	}
	b.StopTimer()
	setFlops(b, cells*core.RHSFlopsPerCell(benchN))
}

// BenchmarkTable7RHSScalar times the scalar ("C++") RHS: the row driver on
// its Go loops.
func BenchmarkTable7RHSScalar(b *testing.B) { benchRHS(b, core.NewRHSGo(benchN)) }

// BenchmarkTable7RHSQPX times the vector ("QPX") RHS: the row driver on the
// native row kernels, AVX2 where the build and CPU have them.
func BenchmarkTable7RHSQPX(b *testing.B) { benchRHS(b, core.NewRHS(benchN)) }

// BenchmarkTable7DTScalar times the scalar SOS kernel.
func BenchmarkTable7DTScalar(b *testing.B) {
	g := benchGrid(benchN, 1)
	data := g.Blocks[0].Data
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += core.MaxCharVelScalar(data)
	}
	b.StopTimer()
	_ = sink
	setFlops(b, int64(benchN*benchN*benchN)*core.SOSFlopsPerCell)
}

// BenchmarkTable7DTQPX times the vector SOS kernel.
func BenchmarkTable7DTQPX(b *testing.B) {
	g := benchGrid(benchN, 1)
	data := g.Blocks[0].Data
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += core.MaxCharVelQPX(data)
	}
	b.StopTimer()
	_ = sink
	setFlops(b, int64(benchN*benchN*benchN)*core.SOSFlopsPerCell)
}

func benchUP(b *testing.B, vector bool) {
	values := benchN * benchN * benchN * physics.NQ
	u := make([]float32, values)
	reg := make([]float32, values)
	rhs := make([]float32, values)
	for i := range u {
		u[i] = float32(i%7) + 1
		rhs[i] = float32(i%11) - 5
	}
	b.SetBytes(int64(values) * core.UpdateBytesPerValue)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vector {
			core.UpdateQPX(u, reg, rhs, -5.0/9.0, 15.0/16.0, 1e-6)
		} else {
			core.UpdateScalar(u, reg, rhs, -5.0/9.0, 15.0/16.0, 1e-6)
		}
	}
	b.StopTimer()
	setFlops(b, int64(values)*core.UpdateFlopsPerValue)
}

// BenchmarkTable7UPScalar times the scalar UP kernel.
func BenchmarkTable7UPScalar(b *testing.B) { benchUP(b, false) }

// BenchmarkTable7UPQPX times the vector UP kernel.
func BenchmarkTable7UPQPX(b *testing.B) { benchUP(b, true) }

func benchFWT(b *testing.B, vector bool) {
	tr := wavelet.NewFWT3(benchN)
	data := make([]float32, benchN*benchN*benchN)
	for i := range data {
		data[i] = float32(i%97) * 0.25
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vector {
			tr.ForwardVec(data)
		} else {
			tr.Forward(data)
		}
	}
	b.StopTimer()
	setFlops(b, int64(benchN*benchN*benchN)*wavelet.FlopsPerCell)
}

// BenchmarkTable7FWTScalar times the scalar forward wavelet transform.
func BenchmarkTable7FWTScalar(b *testing.B) { benchFWT(b, false) }

// BenchmarkTable7FWTQPX times the 4-stream vectorized transform.
func BenchmarkTable7FWTQPX(b *testing.B) { benchFWT(b, true) }

// --- Table 8: instruction audit --------------------------------------------

// BenchmarkTable8InstructionMix times the instruction count of the AVX2
// kernels' loop bodies.
func BenchmarkTable8InstructionMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := core.InstructionMix(benchN)
		if len(rows) != 6 {
			b.Fatal("unexpected mix size")
		}
	}
}

// --- Table 9: staged vs fused RK stage -------------------------------------

// benchStage times one RK stage of one benchN block on the native row
// driver: Compute then UpdateScalar, or ComputeFused when fused is set.
// Under -tags purego this is the portable path's gate.
func benchStage(b *testing.B, fused bool) {
	g := benchGrid(benchN, 1)
	lab := grid.NewLab(benchN)
	lab.Load(g, grid.PeriodicBC(), g.Blocks[0])
	r := core.NewRHS(benchN)
	u := append([]float32(nil), g.Blocks[0].Data...)
	reg := make([]float32, len(u))
	rhs := make([]float32, len(u))
	const a, c, dt = -5.0 / 9.0, 15.0 / 16.0, 1e-9
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fused {
			r.ComputeFused(lab, g.H, u, reg, a, c, dt)
		} else {
			r.Compute(lab, g.H, rhs)
			core.UpdateScalar(u, reg, rhs, a, c, dt)
		}
	}
	b.StopTimer()
	setFlops(b, int64(benchN*benchN*benchN)*core.FusedStageFlopsPerCell(benchN))
}

// BenchmarkTable9Staged times the staged RK stage: Compute, then UpdateScalar.
func BenchmarkTable9Staged(b *testing.B) { benchStage(b, false) }

// BenchmarkTable9Fused times the fused RK stage (ComputeFused), the one the
// production step runs.
func BenchmarkTable9Fused(b *testing.B) { benchStage(b, true) }

// --- Table 10: roofline projections ----------------------------------------

// BenchmarkTable10Projection times the roofline projection math (cheap, for
// completeness of the per-table index).
func BenchmarkTable10Projection(b *testing.B) {
	ms := []roofline.Machine{roofline.BGQ, roofline.PizDaint, roofline.MonteRosa}
	oi := core.OperationalIntensityRHS(benchN)
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, m := range ms {
			sink += m.Project(oi, 0.8)
		}
	}
	_ = sink
}

// --- Figure 5: cloud-collapse step with diagnostics -------------------------

// BenchmarkFig5CloudStep times one production step of a small bubble cloud
// including the global diagnostics reductions.
func BenchmarkFig5CloudStep(b *testing.B) {
	bubbles, err := (cloud.Spec{
		Center: [3]float64{0.5, 0.5, 0.55}, Radius: 0.3, N: 8,
		RMin: 0.05, RMax: 0.1, Seed: 42,
	}).Generate()
	if err != nil {
		b.Fatal(err)
	}
	f := cloud.NewField(bubbles, 0.02)
	world := mpi.NewWorld(1)
	world.Run(func(comm *mpi.Comm) {
		r := cluster.NewRank(comm, cluster.Config{
			RankDims:  [3]int{1, 1, 1},
			BlockDims: [3]int{2, 2, 2},
			BlockSize: benchN,
			Extent:    1,
			BC:        grid.WallBC(grid.ZLo),
			Workers:   runtime.NumCPU(),
			CFL:       0.3,
			Init:      f.At,
		})
		r.Advance()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Advance()
			_ = r.Diagnose(grid.ZLo, true)
		}
		b.StopTimer()
		b.ReportMetric(float64(r.G.Cells())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpoints/s")
	})
}

// --- Figure 7: compressed dump ----------------------------------------------

// BenchmarkFig7Dump times one full compressed dump (FWT + decimation +
// encoding + parallel write) of the pressure field.
func BenchmarkFig7Dump(b *testing.B) {
	dir := b.TempDir()
	world := mpi.NewWorld(1)
	world.Run(func(comm *mpi.Comm) {
		r := cluster.NewRank(comm, cluster.Config{
			RankDims:  [3]int{1, 1, 1},
			BlockDims: [3]int{2, 2, 2},
			BlockSize: benchN,
			Extent:    1,
			Workers:   runtime.NumCPU(),
			CFL:       0.3,
			Init:      benchField,
		})
		b.SetBytes(int64(r.G.Cells()) * 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Dump(dir+"/bench.mpcf", compress.Pressure, 1e-2, "zlib"); err != nil {
				b.Fatal(err)
			}
		}
	})
	os.Remove(dir + "/bench.mpcf")
}

// --- Figure 9: node-layer scaling --------------------------------------------

// BenchmarkFig9Workers times the node-layer RHS at 1, 2, 4, ... workers.
func BenchmarkFig9Workers(b *testing.B) {
	for workers := 1; workers <= runtime.NumCPU(); workers *= 2 {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			g := benchGrid(benchN, 2)
			e := node.New(g, grid.PeriodicBC(), workers, false)
			outs := make([][]float32, len(g.Blocks))
			for i := range outs {
				outs[i] = make([]float32, benchN*benchN*benchN*physics.NQ)
			}
			cells := int64(g.Cells())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.ComputeRHS(g.Blocks, outs)
			}
			b.StopTimer()
			setFlops(b, cells*core.RHSFlopsPerCell(benchN))
		})
	}
}

// --- §7 compression rates and throughput -------------------------------------

// BenchmarkCompressionRate reports the achieved rate as a metric while
// timing the pipeline at the paper's p threshold.
func BenchmarkCompressionRate(b *testing.B) {
	bubbles, _ := (cloud.Spec{
		Center: [3]float64{0.5, 0.5, 0.5}, Radius: 0.35, N: 8,
		RMin: 0.05, RMax: 0.1, Seed: 7,
	}).Generate()
	f := cloud.NewField(bubbles, 0.02)
	g := grid.New(grid.Desc{N: benchN, NBX: 2, NBY: 2, NBZ: 2, H: 1.0 / (2 * benchN)})
	fillBench(g, f.At)
	var rate float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := compress.Compress(g, compress.Pressure, compress.Options{
			Epsilon: 1e-2, Encoder: "zlib", Workers: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		rate = st.Rate()
	}
	b.StopTimer()
	b.ReportMetric(rate, "rate:1")
}

// BenchmarkThroughputBaseline times the naive comparator solver (points/s).
func BenchmarkThroughputBaseline(b *testing.B) {
	s := baseline.New(benchN, benchN, benchN, 1.0/benchN)
	s.Init(benchField)
	cells := int64(benchN * benchN * benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpoints/s")
}

// BenchmarkThroughputProduction times the full production stack (points/s).
func BenchmarkThroughputProduction(b *testing.B) {
	world := mpi.NewWorld(1)
	world.Run(func(comm *mpi.Comm) {
		r := cluster.NewRank(comm, cluster.Config{
			RankDims:  [3]int{1, 1, 1},
			BlockDims: [3]int{1, 1, 1},
			BlockSize: benchN,
			Extent:    1,
			Workers:   runtime.NumCPU(),
			CFL:       0.3,
			Init:      benchField,
		})
		r.Advance()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Advance()
		}
		b.StopTimer()
		b.ReportMetric(float64(r.G.Cells())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpoints/s")
	})
}
