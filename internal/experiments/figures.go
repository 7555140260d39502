package experiments

import (
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"cubism/internal/baseline"
	"cubism/internal/cloud"
	"cubism/internal/cluster"
	"cubism/internal/compress"
	"cubism/internal/core"
	"cubism/internal/grid"
	"cubism/internal/roofline"
	"cubism/internal/sim"
	"cubism/internal/wavelet"
)

// Fig5 regenerates the Figure 5 time series: maximum pressure in the flow
// field and on the solid wall, kinetic energy of the system, and the
// normalized equivalent radius of the cloud, for a small collapsing cloud
// over a wall.
//
// Paper shape: wall pressure eventually peaks at ~20x ambient after the
// collective collapse; kinetic energy rises to a maximum near the main
// collapse; the equivalent radius decreases, rebounds once, then collapses.
func Fig5(w io.Writer, steps int) { fig5(w, steps, blockEdge) }

// fig5 runs the Figure 5 case on 4x4x4 blocks of n³ cells.
func fig5(w io.Writer, steps, n int) {
	header(w, "Figure 5: cloud collapse diagnostics (CSV series)")
	bubbles, err := (cloud.Spec{
		Center: [3]float64{0.5, 0.5, 0.55},
		Radius: 0.3,
		N:      10,
		RMin:   0.05, RMax: 0.1,
		Seed: 42,
	}).Generate()
	if err != nil {
		panic(err)
	}
	field := cloud.NewField(bubbles, 0.02)
	cfg := sim.Config{
		Cluster: cluster.Config{
			RankDims:  [3]int{1, 1, 1},
			BlockDims: [3]int{4, 4, 4},
			BlockSize: n,
			Extent:    1,
			BC:        grid.WallBC(grid.ZLo),
			Workers:   runtime.NumCPU(),
			CFL:       0.3,
			Init:      field.At,
		},
		Steps:     steps,
		DiagEvery: 5,
		Wall:      grid.ZLo,
		HasWall:   true,
	}
	const ambient = 100e5
	r0 := 0.0
	line(w, "time,max_p/ambient,wall_p/ambient,kinetic_energy,equiv_radius_norm")
	_, err = sim.Run(cfg, func(s sim.StepInfo) {
		if !s.HasDiag {
			return
		}
		if r0 == 0 {
			r0 = s.Diag.EquivRadius
		}
		line(w, "%.4e,%.3f,%.3f,%.4e,%.4f",
			s.Time, s.Diag.MaxPressure/ambient, s.Diag.WallPressure/ambient,
			s.Diag.KineticEnergy, s.Diag.EquivRadius/r0)
	})
	if err != nil {
		panic(err)
	}
	line(w, "shape: radius decreases; kinetic energy and pressure peaks grow as bubbles collapse")
}

// Fig7 regenerates the time-distribution pies: the share of each kernel in
// a simulation step with compressed dumps, and the split of the dump stage
// into parallel I/O, wavelet transform and encoding.
//
// Paper shape: RHS ~89% of step time; dumps <= 4-5%; inside a dump: IO 92%,
// ENC 6%, DEC 2%.
func Fig7(w io.Writer, steps int) {
	header(w, "Figure 7: time distribution of the simulation and the dump stage")
	dir, err := os.MkdirTemp("", "mpcf-fig7-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	bubbles, err := (cloud.Spec{
		Center: [3]float64{0.5, 0.5, 0.5}, Radius: 0.3, N: 8,
		RMin: 0.05, RMax: 0.1, Seed: 9,
	}).Generate()
	if err != nil {
		panic(err)
	}
	field := cloud.NewField(bubbles, 0.02)
	cfg := sim.Config{
		Cluster: cluster.Config{
			RankDims:  [3]int{1, 1, 1},
			BlockDims: [3]int{4, 4, 4},
			BlockSize: blockEdge,
			Extent:    1,
			Workers:   runtime.NumCPU(),
			CFL:       0.3,
			Init:      field.At,
		},
		Steps:     steps,
		DumpEvery: steps / 2,
		DumpDir:   dir,
		DiagEvery: 1 << 30,
	}
	summary, err := sim.Run(cfg, nil)
	if err != nil {
		panic(err)
	}
	line(w, "step time distribution (left pie):")
	line(w, "%s", summary.Report)
	ioShare := summary.KernelShare["IO_WAVELET"]
	line(w, "dump stage share of total: %.1f%% (paper: 4-5%% at dumps every 100 steps)", 100*ioShare)
	line(w, "RHS share: %.1f%% (paper: ~89%%)", 100*summary.KernelShare["RHS"])
}

// Fig9 regenerates the node-layer weak scaling: sustained RHS/DT/UP
// GFLOP/s as the worker count grows with fixed blocks per worker, plus the
// kernels' placement against the host roofline.
func Fig9(w io.Writer, minDur time.Duration) {
	header(w, "Figure 9: node-layer scaling and roofline placement")
	host := roofline.MeasureHost()
	line(w, "%s", host.String())
	maxW := runtime.NumCPU()
	line(w, "%8s %14s %16s", "workers", "RHS GFLOP/s", "per-worker")
	base := 0.0
	for workers := 1; workers <= maxW; workers *= 2 {
		// Fixed work per worker: one block column per worker.
		nb := 2
		rate := measureEngineRHS(blockEdge, nb, workers, nil, minDur)
		if workers == 1 {
			base = rate
		}
		line(w, "%8d %14.2f %15.2f%%", workers, rate, 100*rate/(base*float64(workers)))
	}
	line(w, "roofline placement (host, operational intensities at N=%d):", blockEdge)
	for _, k := range []struct {
		name string
		oi   float64
	}{
		{"RHS", core.OperationalIntensityRHS(blockEdge)},
		{"DT", core.OperationalIntensityDT()},
		{"UP", core.OperationalIntensityUP()},
	} {
		line(w, "  %-4s OI %6.2f FLOP/B -> attainable %7.2f GFLOP/s (%s)",
			k.name, k.oi, host.Attainable(k.oi), boundKind(host, k.oi))
	}
}

func boundKind(m roofline.Machine, oi float64) string {
	if oi < m.Ridge() {
		return "memory-bound"
	}
	return "compute-bound"
}

// Compression regenerates the §7 compression-rate observations: rates for
// p and Γ across thresholds, the AMR-threshold comparison, and disk
// footprints.
//
// Paper values: p 10-20:1 at eps=1e-2, Γ 100-150:1 at eps=1e-3;
// AMR-grade thresholds (1e-4..1e-7) compress at best 1.15:1 when applied
// to each scalar field of the *solution* (not the dump quantities).
func Compression(w io.Writer, n int) {
	header(w, "Compression rates (paper §7)")
	g := cloudGrid(n, 64/n, 7)
	line(w, "%-8s %10s %10s %10s %12s", "quantity", "epsilon", "rate", "kept", "imbalance")
	for _, c := range []struct {
		q   compress.Quantity
		eps float64
	}{
		{compress.Pressure, 1e-2},
		{compress.Pressure, 1e-3},
		{compress.Gamma, 1e-3},
		{compress.Gamma, 1e-2},
	} {
		_, st, err := compress.Compress(g, c.q, compress.Options{
			Epsilon: c.eps, Encoder: "zlib", Workers: 4,
		})
		if err != nil {
			panic(err)
		}
		line(w, "%-8s %10.0e %9.1f:1 %9.2f%% %11.0f%%",
			c.q, c.eps, st.Rate(), 100*float64(st.Kept)/float64(st.Total),
			100*compress.Imbalance(st.EncTimes))
	}
	// AMR-threshold comparison: thresholds tight enough for solution-grade
	// L∞ errors barely compress.
	for _, eps := range []float64{1e-5, 1e-6} {
		_, st, err := compress.Compress(g, compress.Density, compress.Options{
			Epsilon: eps, Encoder: "zlib", Workers: 4,
		})
		if err != nil {
			panic(err)
		}
		line(w, "%-8s %10.0e %9.2f:1   (AMR-grade threshold; paper: <= 1.15:1)",
			"rho", eps, st.Rate())
	}
	// Zerotree alternative (paper refs [72,48]) on one pressure block.
	{
		blk := g.Blocks[0]
		field := make([]float32, n*n*n)
		compress.Pressure.Extract(blk, field)
		var scale float64
		for _, v := range field {
			if a := math.Abs(float64(v)); a > scale {
				scale = a
			}
		}
		wavelet.NewFWT3(n).Forward(field)
		stream := compress.ZerotreeEncode(field, n, 1e-3*scale)
		line(w, "%-8s %10.0e %9.2f:1   (embedded zerotree coder, one block)",
			"p/EZW", 1e-3, float64(n*n*n*4)/float64(len(stream)))
	}
	line(w, "paper: p 10-20:1 (eps 1e-2), Gamma 100-150:1 (eps 1e-3) at 50+ cells/radius resolution")
	line(w, "note: rates scale with interface sharpness; at this laptop resolution the interface")
	line(w, "occupies a larger cell fraction, capping the achievable rate (see EXPERIMENTS.md)")
}

// Throughput regenerates the §7 throughput discussion: measured points/s
// on this host, the projection onto 96 BGQ racks, and the comparison with
// the naive baseline solver (the state-of-the-art stand-in [68]).
//
// Paper values: 721 billion points/s on 96 racks, 18.3 s/step at 13.2
// trillion points, 20X over the state of the art.
func Throughput(w io.Writer, steps int) {
	header(w, "Throughput and time to solution (paper §7)")
	// Production solver on a small cloud.
	bubbles, err := (cloud.Spec{
		Center: [3]float64{0.5, 0.5, 0.5}, Radius: 0.3, N: 6,
		RMin: 0.05, RMax: 0.1, Seed: 3,
	}).Generate()
	if err != nil {
		panic(err)
	}
	field := cloud.NewField(bubbles, 0.02)
	cfg := sim.Config{
		Cluster: cluster.Config{
			RankDims:  [3]int{1, 1, 1},
			BlockDims: [3]int{2, 2, 2},
			BlockSize: blockEdge,
			Extent:    1,
			Workers:   runtime.NumCPU(),
			CFL:       0.3,
			Init:      field.At,
		},
		Steps:     steps,
		DiagEvery: 1 << 30,
	}
	summary, err := sim.Run(cfg, nil)
	if err != nil {
		panic(err)
	}
	prodRate := summary.PointsPerSec

	// Baseline solver on the same problem size.
	cells := blockEdge * 2
	b := baseline.New(cells, cells, cells, 1.0/float64(cells))
	b.Init(field.At)
	b.Step() // warm-up
	t0 := time.Now()
	baseSteps := max(steps/4, 1)
	for i := 0; i < baseSteps; i++ {
		b.Step()
	}
	baseRate := float64(cells*cells*cells*baseSteps) / time.Since(t0).Seconds()

	line(w, "production solver: %10.2f Mpoints/s (all cores)", prodRate/1e6)
	line(w, "naive baseline:    %10.2f Mpoints/s (single core, no reordering)", baseRate/1e6)
	line(w, "speedup:           %10.1fX (paper: 20X over the state of the art [68])", prodRate/baseRate)
	// Projection: the paper runs 13.2e12 points at 18.3 s/step on 96 racks
	// = 721e9 points/s, i.e. 7.3e6 points/s per core at 1.6e6 cores.
	perCore := prodRate / float64(runtime.NumCPU())
	projected := perCore * 1572864
	line(w, "per-core rate %.2f Mpoints/s -> naive projection to 1.6M BGQ cores: %.0f Gpoints/s (paper: 721)",
		perCore/1e6, projected/1e9)
	line(w, "(projection assumes core parity with the A2; see EXPERIMENTS.md for the calibrated model)")
}

// IO regenerates the §7 storage discussion: the disk footprint of a raw
// full-state snapshot against the compressed p and Γ dumps (paper: 7.9 TB
// uncompressed vs 0.47 TB compressed for the production campaign, a ~17:1
// campaign-level reduction), plus the wall-clock cost of both paths.
func IO(w io.Writer, n int) {
	header(w, "I/O footprint: raw state vs compressed dumps (paper §7)")
	g := cloudGrid(n, 64/n, 7)
	cells := int64(g.Cells())
	rawBytes := cells * 7 * 4 // full conserved state, float32

	t0 := time.Now()
	var compBytes int64
	for _, c := range []struct {
		q   compress.Quantity
		eps float64
	}{{compress.Pressure, 1e-2}, {compress.Gamma, 1e-3}} {
		_, st, err := compress.Compress(g, c.q, compress.Options{
			Epsilon: c.eps, Encoder: "zlib", Workers: 4,
		})
		if err != nil {
			panic(err)
		}
		compBytes += st.Encoded
	}
	compTime := time.Since(t0)

	// Raw write timing (page cache; a real parallel FS would be slower, so
	// the measured ratio is a lower bound on the paper's I/O gain).
	dir, err := os.MkdirTemp("", "mpcf-io-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	raw := make([]byte, rawBytes)
	t0 = time.Now()
	if err := os.WriteFile(dir+"/raw.bin", raw, 0o644); err != nil {
		panic(err)
	}
	rawTime := time.Since(t0)

	line(w, "raw full state:      %12d bytes (7 quantities, float32)", rawBytes)
	line(w, "compressed p + Γ:    %12d bytes", compBytes)
	line(w, "footprint reduction: %11.1f:1  (paper campaign: 7.9 TB -> 0.47 TB = 16.8:1)",
		float64(rawBytes)/float64(compBytes))
	line(w, "compress time %v vs raw write %v (page cache; on a bandwidth-limited", compTime.Round(time.Millisecond), rawTime.Round(time.Millisecond))
	line(w, "parallel file system the compressed path wins by the footprint ratio)")
}
