package experiments

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

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

// Table3 regenerates the operational-intensity table (naive vs reordered
// data layout) from the kernels' analytic FLOP and traffic counts.
//
// Paper values: RHS 1.4 -> 21 FLOP/B (15X), DT 1.3 -> 5.1 (3.9X), UP 0.2
// unchanged.
func Table3(w io.Writer, n int) {
	header(w, "Table 3: potential gain due to data-reordering (FLOP/B)")
	rhsN := core.OperationalIntensityRHSNaive(n)
	rhsR := core.OperationalIntensityRHS(n)
	dtN := core.OperationalIntensityDTNaive()
	dtR := core.OperationalIntensityDT()
	up := core.OperationalIntensityUP()
	line(w, "%-12s %12s %12s %12s", "", "RHS", "DT", "UP")
	line(w, "%-12s %9.1f FB %9.1f FB %9.1f FB", "Naive", rhsN, dtN, up)
	line(w, "%-12s %9.1f FB %9.1f FB %9.1f FB", "Reordered", rhsR, dtR, up)
	line(w, "%-12s %11.1fX %11.1fX %11.1fX", "Factor", rhsR/rhsN, dtR/dtN, 1.0)
	line(w, "%-12s %12s %12s %12s", "paper", "1.4->21 (15X)", "1.3->5.1 (3.9X)", "0.2 (1X)")
	bgq := roofline.BGQ
	line(w, "BGQ ridge point: %.1f FLOP/B -> reordered RHS is compute-bound, UP stays memory-bound", bgq.Ridge())
}

// Table4Result carries the compression work-imbalance statistics.
type Table4Result struct {
	DecG, EncG, IOG float64
	DecP, EncP, IOP float64
}

// Table4 regenerates the work-imbalance table of the compression stages,
// (tmax-tmin)/tavg across workers, for Γ and p.
//
// Paper values: Γ DEC 30% ENC 390% IO 5%; p DEC 22% ENC 2100% IO 15%.
func Table4(w io.Writer, n int) Table4Result {
	header(w, "Table 4: work imbalance in the data compression")
	g := cloudGrid(n, 64/n, 7)
	workers := runtime.NumCPU()
	if workers > 8 {
		workers = 8
	}
	if workers < 4 {
		workers = 4
	}
	serial := runtime.GOMAXPROCS(0) == 1
	if serial {
		line(w, "(single hardware thread: timing-based imbalance is meaningless;")
		line(w, " DEC uses per-worker wall time, ENC the per-worker stream-size spread,")
		line(w, " which is the data dependence that drives the paper's ENC imbalance)")
	}
	var res Table4Result
	measure := func(q compress.Quantity, eps float64) (dec, enc, ioImb float64) {
		c, stats, err := compress.Compress(g, q, compress.Options{
			Epsilon: eps, Encoder: "zlib", Workers: workers,
		})
		if err != nil {
			panic(err)
		}
		dec = compress.Imbalance(stats.DecTimes)
		enc = compress.Imbalance(stats.EncTimes)
		if serial {
			// Size-based proxies independent of scheduling.
			sizes := make([]time.Duration, len(c.Streams))
			for i, s := range c.Streams {
				sizes[i] = time.Duration(len(s))
			}
			enc = compress.Imbalance(sizes)
		}
		// IO imbalance: per-worker write times to a shared file (size
		// variance dominates).
		dir, err := os.MkdirTemp("", "mpcf-t4-*")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(dir)
		f, err := os.Create(filepath.Join(dir, "payload.bin"))
		if err != nil {
			panic(err)
		}
		defer f.Close()
		ioTimes := make([]time.Duration, len(c.Streams))
		// Two passes: the first warms the page cache and file allocation so
		// the measured pass reflects size-driven variance, as on a parallel
		// file system in steady state.
		for pass := 0; pass < 2; pass++ {
			off := int64(0)
			for i, s := range c.Streams {
				t0 := time.Now()
				if _, err := f.WriteAt(s, off); err != nil {
					panic(err)
				}
				ioTimes[i] = time.Since(t0)
				off += int64(len(s))
			}
		}
		ioImb = compress.Imbalance(ioTimes)
		return
	}
	res.DecG, res.EncG, res.IOG = measure(compress.Gamma, 1e-3)
	res.DecP, res.EncP, res.IOP = measure(compress.Pressure, 1e-2)
	line(w, "%-10s %8s %8s %8s   (workers=%d)", "", "DEC", "ENC", "IO", workers)
	line(w, "%-10s %7.0f%% %7.0f%% %7.0f%%", "Gamma", 100*res.DecG, 100*res.EncG, 100*res.IOG)
	line(w, "%-10s %7.0f%% %7.0f%% %7.0f%%", "Pressure", 100*res.DecP, 100*res.EncP, 100*res.IOP)
	line(w, "%-10s %8s %8s %8s", "paper G", "30%", "390%", "5%")
	line(w, "%-10s %8s %8s %8s", "paper p", "22%", "2100%", "15%")
	line(w, "shape: encoding imbalance >> decimation imbalance (data-dependent stream sizes)")
	return res
}

// rackModel estimates the per-kernel peak fraction at a given rack count by
// combining (a) the issue-rate bound of the counted instruction mix, (b)
// the roofline bound on BGQ, (c) the implementation efficiency measured on
// this host (sustained/roofline-attainable), and (d) an analytic
// communication overhead for the halo exchange at that scale.
type rackModel struct {
	n          int
	hostEff    map[string]float64 // measured efficiency per kernel
	issueBound float64            // RHS issue-rate bound (Table 8 ALL)
}

func newRackModel(n int, minDur time.Duration) *rackModel {
	host := roofline.MeasureHost()
	eff := map[string]float64{}
	// Sustained single-core GFLOP/s relative to the host roofline bound for
	// the kernel's operational intensity.
	rhs := MeasureRHS(n, core.NewRHS(n), minDur)
	eff["RHS"] = rhs / host.Attainable(core.OperationalIntensityRHS(n))
	dt := MeasureDT(n, minDur)
	eff["DT"] = dt / host.Attainable(core.OperationalIntensityDT())
	up := MeasureUP(n, minDur)
	eff["UP"] = up / host.Attainable(core.OperationalIntensityUP())
	for k, v := range eff {
		if v > 1 {
			eff[k] = 1 // cache effects can push past the DRAM roofline
		}
		_ = k
	}
	mix := core.InstructionMix(n)
	issue := mix[len(mix)-1].PeakBound
	return &rackModel{n: n, hostEff: eff, issueBound: issue}
}

// commOverhead returns the fraction of RHS time spent in the (non-hidden)
// halo exchange for the paper's production geometry: a 1024³-cell
// subdomain per node, 6 messages of 3-cell-deep faces per step stage,
// 2 GB/s per link, overlapped with the interior computation (the paper
// expects compute one order of magnitude above comm; the residual
// non-overlapped fraction grows slowly with machine size through network
// contention, modeled at 1% per 4x rack increase).
func commOverhead(racks int) float64 {
	const base = 0.02
	return base + 0.01*math.Log2(float64(racks))/2
}

// kernelPeak returns the modeled peak fraction of a kernel on BGQ.
func (m *rackModel) kernelPeak(kernel string, racks int) float64 {
	bgq := roofline.BGQ
	var oi float64
	switch kernel {
	case "RHS":
		oi = core.OperationalIntensityRHS(m.n)
	case "DT":
		oi = core.OperationalIntensityDT()
	case "UP":
		oi = core.OperationalIntensityUP()
	}
	bound := bgq.PeakFraction(oi)
	if kernel == "RHS" && m.issueBound < bound {
		bound = m.issueBound
	}
	frac := bound * m.hostEff[kernel]
	if racks > 1 {
		frac *= 1 - commOverhead(racks)
	}
	if kernel == "DT" && racks > 1 {
		// The global scalar reduction serializes; the paper observes 18%
		// (node) -> 7% (rack) -> 5% (24+ racks).
		frac *= 0.4
	}
	return frac
}

// Table5 regenerates the achieved-performance table: per-kernel and overall
// peak fractions at 1, 24 and 96 racks (modeled; see DESIGN.md), plus this
// host's measured sustained GFLOP/s for grounding.
//
// Paper values: RHS 60/57/55%, DT 7/5/5%, UP 2/2/2%, ALL 53/51/50%;
// 96 racks = 11 PFLOP/s total.
func Table5(w io.Writer, n int, minDur time.Duration) {
	header(w, "Table 5: achieved performance (modeled on BGQ; host-calibrated)")
	m := newRackModel(n, minDur)
	line(w, "host-measured kernel efficiency vs roofline: RHS %.2f  DT %.2f  UP %.2f; RHS issue bound %.2f",
		m.hostEff["RHS"], m.hostEff["DT"], m.hostEff["UP"], m.issueBound)
	// Time shares from the paper's step composition: RHS ~89%, UP ~9%,
	// DT ~2% of kernel time.
	shares := map[string]float64{"RHS": 0.89, "DT": 0.02, "UP": 0.09}
	line(w, "%-22s %8s %8s %8s %8s %14s", "", "RHS", "DT", "UP", "ALL", "PFLOP/s (ALL)")
	for _, racks := range []int{1, 24, 96} {
		rhs := m.kernelPeak("RHS", racks)
		dt := m.kernelPeak("DT", racks)
		up := m.kernelPeak("UP", racks)
		// Overall peak fraction: total FLOPs / (total time x peak).
		// FLOP shares follow from time shares x peak fractions.
		flops := shares["RHS"]*rhs + shares["DT"]*dt + shares["UP"]*up
		all := flops // total time is the share-weighted sum (normalized)
		pf := all * float64(racks) * roofline.RackGFLOPS / 1e6
		line(w, "%2d rack(s) [%% of peak]  %7.0f%% %7.0f%% %7.0f%% %7.0f%% %14.2f", racks,
			100*rhs, 100*dt, 100*up, 100*all, pf)
	}
	line(w, "%-22s %8s %8s %8s %8s %14s", "paper 1 rack", "60%", "7%", "2%", "53%", "-")
	line(w, "%-22s %8s %8s %8s %8s %14s", "paper 24 racks", "57%", "5%", "2%", "51%", "2.55")
	line(w, "%-22s %8s %8s %8s %8s %14s", "paper 96 racks", "55%", "5%", "2%", "50%", "10.14 (11 RHS)")
}

// Table6 regenerates the node-to-cluster degradation: the node layer alone
// (no MPI) against the cluster layer with ghost messages, measured on this
// host with simulated ranks.
//
// Paper values: RHS 62->60%, DT 18->7%, UP 3->2%, ALL 55->53%.
func Table6(w io.Writer, n int, minDur time.Duration) {
	header(w, "Table 6: node-to-cluster performance degradation (host-measured)")
	workers := runtime.NumCPU() / 2
	if workers < 1 {
		workers = 1
	}
	// Node layer: engine without any communication.
	nodeRate := measureEngineRHS(n, 2, workers, nil, minDur)
	nodeScaled := nodeRate / float64(workers)
	// Cluster layer: the same evaluation behind the full exchange path. On
	// hosts with fewer than 8 hardware threads a multi-rank world would
	// measure oversubscription, not communication, so a single rank with
	// periodic self-messages carries the same message volume instead.
	ranks := 8
	if runtime.NumCPU() < 8 {
		ranks = 1
	}
	perRank := workers / ranks
	if perRank < 1 {
		perRank = 1
	}
	clusterRate := measureClusterRHS(n, 2, ranks, perRank, minDur)
	clusterScaled := clusterRate / float64(ranks*perRank)
	deg := clusterScaled / nodeScaled
	line(w, "node layer    RHS %8.2f GFLOP/s/worker (workers=%d)", nodeScaled, workers)
	line(w, "cluster layer RHS %8.2f GFLOP/s/worker (%d rank(s) x %d workers, ghost messages on)", clusterScaled, ranks, perRank)
	line(w, "degradation   %.0f%% of node-layer rate (paper: 60/62 = 97%%)", 100*deg)
	line(w, "(a ratio near or above 100%% means the in-process transport makes the exchange")
	line(w, " nearly free; the paper's ~3%% loss comes from real network latency)")
}

// measureEngineRHS runs the node engine over nb³ blocks and returns
// sustained GFLOP/s.
func measureEngineRHS(n, nb, workers int, bc *grid.BC, minDur time.Duration) float64 {
	g := grid.New(grid.Desc{N: n, NBX: nb, NBY: nb, NBZ: nb, H: 1.0 / float64(n*nb)})
	fillGrid(g, testField)
	useBC := grid.PeriodicBC()
	if bc != nil {
		useBC = *bc
	}
	e := node.New(g, useBC, workers, false)
	outs := make([][]float32, len(g.Blocks))
	for i := range outs {
		outs[i] = make([]float32, n*n*n*physics.NQ)
	}
	flops := int64(g.Cells()) * core.RHSFlopsPerCell(n)
	return KernelRate(flops, minDur, func() { e.ComputeRHS(g.Blocks, outs) })
}

// measureClusterRHS runs 8 simulated ranks, each evaluating its blocks with
// halo exchange, and returns the aggregate sustained GFLOP/s. Every rank
// executes the same fixed repetition count (the exchange is collective).
func measureClusterRHS(n, nb, ranks, workersPerRank int, minDur time.Duration) float64 {
	dims := [3]int{2, 2, 2}
	if ranks == 1 {
		dims = [3]int{1, 1, 1}
	}
	world := mpi.NewWorld(ranks)
	var aggregate float64
	world.Run(func(comm *mpi.Comm) {
		r := cluster.NewRank(comm, cluster.Config{
			RankDims:  dims,
			BlockDims: [3]int{nb, nb, nb},
			BlockSize: n,
			Extent:    1,
			BC:        grid.PeriodicBC(),
			Workers:   workersPerRank,
			CFL:       0.3,
			Init:      testField,
		})
		r.ComputeRHSOnly() // warm-up
		// Calibrate the repetition count on rank 0, then share it.
		var reps float64
		if comm.Rank() == 0 {
			t0 := time.Now()
			r.ComputeRHSOnly()
			per := time.Since(t0)
			reps = math.Max(2, minDur.Seconds()/math.Max(per.Seconds(), 1e-9))
		} else {
			r.ComputeRHSOnly() // keep the collective exchange aligned
		}
		reps = comm.Allreduce(reps, mpi.MaxOp)
		comm.Barrier()
		start := time.Now()
		for i := 0; i < int(reps); i++ {
			r.ComputeRHSOnly()
		}
		comm.Barrier()
		if comm.Rank() == 0 {
			elapsed := time.Since(start).Seconds()
			flops := float64(r.G.Cells()) * float64(core.RHSFlopsPerCell(n)) * reps * float64(comm.Size())
			aggregate = flops / elapsed / 1e9
		}
	})
	return aggregate
}

// Table7 regenerates the core-layer comparison: scalar ("C++") against
// 4-lane vector ("QPX") builds of the kernels. The RHS row times the row
// driver on its Go loops against the same driver on the AVX2 row kernels
// (n/a where the build or CPU has none). UP prints the rate of the kernel
// UpdateScalar runs, in the AVX2 column where the CPU has it. DT and FWT
// have no 4-lane twin yet and print their scalar rate only.
//
// Paper values (GFLOP/s): RHS 2.21->8.27 (3.7X), DT 0.90->1.96 (2.2X),
// UP 0.30->0.29 (1X), FWT 0.40->1.29 (3.2X).
func Table7(w io.Writer, n int, minDur time.Duration) {
	header(w, "Table 7: core-layer kernels, Go loop vs AVX2")
	line(w, "%-6s %14s %14s %10s", "", "scalar GF/s", "AVX2 GF/s", "X")
	scalar := MeasureRHS(n, core.NewRHSGo(n), minDur)
	if nativeAVX2(n) {
		vector := MeasureRHS(n, core.NewRHS(n), minDur)
		line(w, "%-6s %14.2f %14.2f %9.2fX", "RHS", scalar, vector, vector/scalar)
	} else {
		line(w, "%-6s %14.2f %14s %10s", "RHS", scalar, "n/a", "n/a")
	}
	line(w, "%-6s %14.2f %14s %10s", "DT", MeasureDT(n, minDur), "-", "-")
	if up := MeasureUP(n, minDur); nativeAVX2(n) {
		line(w, "%-6s %14s %14.2f %10s", "UP", "-", up, "-")
	} else {
		line(w, "%-6s %14.2f %14s %10s", "UP", up, "-", "-")
	}
	line(w, "%-6s %14.2f %14s %10s", "FWT", measureFWT(n, minDur), "-", "-")
	line(w, "paper: RHS 2.21->8.27 (3.7X)  DT 0.90->1.96 (2.2X)  UP 0.30->0.29 (1X)  FWT 0.40->1.29 (3.2X)")
}

// measureFWT returns sustained GFLOP/s of the forward wavelet transform.
func measureFWT(n int, minDur time.Duration) float64 {
	if n&(n-1) != 0 {
		n = 16
	}
	tr := wavelet.NewFWT3(n)
	data := make([]float32, n*n*n)
	for i := range data {
		data[i] = float32(i%97) * 0.25
	}
	flops := int64(n*n*n) * wavelet.FlopsPerCell
	return KernelRate(flops, minDur, func() { tr.Forward(data) })
}

// Table8 regenerates the issue-rate analysis: FLOP/instruction density per
// RHS stage and the implied peak bound, counted from the loop bodies of
// the AVX2 row kernels. BACK, which runs scalar Go, prints "scalar".
//
// Paper values: CONV 1% 1.10x4 55%; WENO 83% 1.56x4 78%; HLLE 13% 1.30x4
// 65%; SUM 2% 1.22x4 61%; BACK <1% 1.28x4 64%; ALL 1.51x4 76%.
func Table8(w io.Writer, n int) {
	header(w, "Table 8: performance estimation based on the issue rate")
	line(w, "%-6s %8s %14s %8s", "stage", "weight", "FLOP/instr", "peak")
	for _, r := range core.InstructionMix(n) {
		if r.Density == 0 {
			line(w, "%-6s %7.0f%% %14s %8s", r.Stage, 100*r.Weight, "scalar", "-")
			continue
		}
		line(w, "%-6s %7.0f%% %10.2f x 4 %7.0f%%", r.Stage, 100*r.Weight, r.Density, 100*r.PeakBound)
	}
	line(w, "paper: CONV 1%% 1.10 55%% | WENO 83%% 1.56 78%% | HLLE 13%% 1.30 65%% | SUM 2%% 1.22 61%% | BACK <1%% 1.28 64%% | ALL 1.51 76%%")
}

// Table9 regenerates the fusion comparison on the row driver: one RK stage
// of a block as Compute followed by UpdateScalar (staged) against
// ComputeFused (fused), the fusion the production step runs. The row is
// labelled with the row kernels the driver runs.
//
// Paper values: 7.9 -> 9.2 GFLOP/s (1.2X GFLOP/s, 1.3X time).
func Table9(w io.Writer, n int, minDur time.Duration) {
	header(w, "Table 9: RHS stage, staged vs fused (row driver)")
	r := core.NewRHS(n)
	lab, g := blockLab(n)
	u := append([]float32(nil), g.Blocks[0].Data...)
	reg := make([]float32, len(u))
	rhs := make([]float32, len(u))
	const a, b, dt = -5.0 / 9.0, 15.0 / 16.0, 1e-9
	flops := int64(n*n*n) * core.FusedStageFlopsPerCell(n)
	staged := KernelRate(flops, minDur, func() {
		r.Compute(lab, g.H, rhs)
		core.UpdateScalar(u, reg, rhs, a, b, dt)
	})
	fused := KernelRate(flops, minDur, func() { r.ComputeFused(lab, g.H, u, reg, a, b, dt) })
	kernel := "go"
	if nativeAVX2(n) {
		kernel = "avx2"
	}
	line(w, "%-8s staged %7.2f GF/s   fused %7.2f GF/s   improvement %.2fX", kernel, staged, fused, fused/staged)
	line(w, "paper (QPX): baseline 7.9 -> fused 9.2 GFLOP/s (1.2X GFLOP/s, 1.3X cycles)")
}

// Table10 regenerates the performance-portability table: the measured
// kernel efficiencies projected onto the Cray XE6 and XC30 machine models.
//
// Paper values (per node): Piz Daint RHS 40% DT 18% UP 2%; Monte Rosa RHS
// 37% DT 16% UP 2%.
func Table10(w io.Writer, n int, minDur time.Duration) {
	header(w, "Table 10: performance portability across machine models")
	m := newRackModel(n, minDur)
	ois := map[string]float64{
		"RHS": core.OperationalIntensityRHS(n),
		"DT":  core.OperationalIntensityDT(),
		"UP":  core.OperationalIntensityUP(),
	}
	machines := []roofline.Machine{roofline.BGQ, roofline.PizDaint, roofline.MonteRosa}
	line(w, "%-24s %8s %8s %8s", "machine", "RHS", "DT", "UP")
	for _, mc := range machines {
		rhs := mc.Project(ois["RHS"], m.hostEff["RHS"])
		// On the Cray nodes the paper reaches a lower RHS fraction (40%)
		// because the SSE port cannot express all QPX idioms; apply the
		// issue bound like BGQ.
		if m.issueBound < 1 {
			rhs = math.Min(rhs, m.issueBound*m.hostEff["RHS"])
		}
		dt := mc.Project(ois["DT"], m.hostEff["DT"])
		up := mc.Project(ois["UP"], m.hostEff["UP"])
		line(w, "%-24s %7.0f%% %7.0f%% %7.0f%%", mc.Name, 100*rhs, 100*dt, 100*up)
	}
	line(w, "%-24s %8s %8s %8s", "paper Piz Daint", "40%", "18%", "2%")
	line(w, "%-24s %8s %8s %8s", "paper Monte Rosa", "37%", "16%", "2%")
	line(w, "shape: RHS compute-bound everywhere; UP pinned at the memory roofline (~2%%)")
}
