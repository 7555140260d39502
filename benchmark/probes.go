package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cubism/internal/cluster"
	"cubism/internal/compress"
	"cubism/internal/core"
	"cubism/internal/dump"
	"cubism/internal/grid"
	"cubism/internal/mpi"
	"cubism/internal/node"
	"cubism/internal/physics"
	"cubism/internal/roofline"
	"cubism/internal/scenario"
	"cubism/internal/sim"
	"cubism/internal/telemetry"
	"cubism/internal/wavelet"
)

// runTraced is the --trace 1 mode. It has two parts.
//
// The workload's own round is run untraced and then traced: the traced pass
// records a span around every call the benchmark makes into a layer, and its
// per-layer self times, closure and overhead against the untraced pass are
// the trace.* metrics. The spans are written as a Chrome trace.
//
// The layer tour then times each layer's public functions directly, at the
// workload's block size: kernels on a loaded lab, the pool, a two-rank step
// loop on both transports, the wire, one snapshot, and a short service
// session. Every per-layer metric is therefore measured in every traced run,
// and means the same thing on every workload.
func runTraced(sp spec, e *env) (values, error) {
	v := values{}
	untraced, err := sp.round(e, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	rec := newRecorder(sp.name)
	traced, err := sp.round(e, 1, rec)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	for k, x := range rec.shares(0) {
		v[k] = x
	}
	v["op_ms_p90"] = percentile(untraced.op, 0.9)
	v["trace.overhead_share"] = 1 - ratio(ratio(float64(traced.ops), traced.wallS), ratio(float64(untraced.ops), untraced.wallS))
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(e.outDir, "trace_"+sp.name+".json")
	if err := rec.writeChrome(tracePath); err != nil {
		return nil, err
	}
	fmt.Fprintf(e.info, "%s: %d spans written to %s\n", sp.name, len(rec.spans), tracePath)

	if err := probeKernels(sp, e, v); err != nil {
		return nil, fmt.Errorf("kernel probes: %w", err)
	}
	if err := probeCluster(sp, e, v); err != nil {
		return nil, fmt.Errorf("cluster probes: %w", err)
	}
	if err := probeWire(sp, v); err != nil {
		return nil, fmt.Errorf("wire probes: %w", err)
	}
	// The service layer's numbers come from the workload's own jobs when it
	// has any, otherwise from a short session with the service_jobs spec.
	jts := untraced.jobs
	if jts == nil {
		short := specs["service_jobs"]
		short.jobs, short.reference = 4, false
		session, err := jobSession(short, e, 2, nil)
		if err != nil {
			return nil, fmt.Errorf("service probe: %w", err)
		}
		jts = session.jobs
	}
	serviceMetrics(jts, v)
	return v, nil
}

// probeBudget is how long timeCalls keeps calling at full probe scale.
const probeBudget = 100 * time.Millisecond

// timeCalls calls f at least minCalls times and for at least budget, and
// returns the median call time in nanoseconds.
func timeCalls(budget time.Duration, minCalls int, f func()) float64 {
	var ns []float64
	start := time.Now()
	for len(ns) < minCalls || (time.Since(start) < budget && len(ns) < 2000) {
		t0 := time.Now()
		f()
		ns = append(ns, float64(time.Since(t0)))
	}
	return median(ns)
}

// probeKernels runs cloud32_node's shape (one rank, 2×2×2 blocks, 2 workers)
// at the workload's block size for a few steps through sim.Run, which gives
// the sim layer's numbers, and then times the core, grid, node, wavelet and
// compress entry points on the warmed-up state while the rank is still live.
func probeKernels(sp spec, e *env, v values) error {
	shape := spec{
		name: "probe", n: sp.n, ranks: [3]int{1, 1, 1}, blocks: [3]int{2, 2, 2},
		workers: 2, steps: 4, diagEvery: 4, auditEvery: 4,
	}
	host := roofline.MeasureHost()
	fmt.Fprintln(e.info, host)
	t0 := time.Now()
	c, err := buildCase(shape, e.seed)
	if err != nil {
		return err
	}
	v["scenario.build_ms"] = time.Since(t0).Seconds() * 1e3
	var stepMS []float64
	var probeErr error
	cfg := c.Config
	budget := time.Duration(float64(probeBudget) * e.probeScale)
	cfg.OnFinish = func(r *cluster.Rank) { probeErr = kernelProbes(r, c, host, budget, v) }
	sum, err := sim.Run(cfg, func(s sim.StepInfo) { stepMS = append(stepMS, s.WallMS) })
	if err != nil {
		return err
	}
	if probeErr != nil {
		return probeErr
	}
	// What the step loop spends outside the kernels sim's own monitor
	// times: the ROADMAP's closure gap, seen from outside.
	var kernelS, stepS float64
	for _, k := range sum.Kernels {
		kernelS += k.Total.Seconds()
	}
	for _, ms := range stepMS {
		stepS += ms / 1e3
	}
	v["sim.unattributed_share"] = 1 - ratio(kernelS, stepS)
	v["sim.first_step_over_median"] = ratio(stepMS[0], median(stepMS[1:]))
	return nil
}

func kernelProbes(r *cluster.Rank, c *scenario.Case, host roofline.Machine, budget time.Duration, v values) error {
	g, n := r.G, r.G.N
	cells := float64(n * n * n)
	blk := g.Blocks[0]

	ps := r.Engine.PoolStats()
	v["node.busy_share"] = ratio(float64(ps.BusyNS), float64(ps.BusyNS+ps.IdleNS))
	// Three fused stage tasks and one DT task per block and step. Computed,
	// not read from PoolStats.TasksRun, which can lag by one task.
	v["node.tasks_per_step"] = float64(len(g.Blocks) * 4)

	// core, single thread, on one block's loaded lab.
	lab := grid.NewLab(n)
	ns := timeCalls(budget, 5, func() { lab.Load(g, r.Cfg.BC, blk) })
	v["grid.lab_load_ns_per_cell"] = ns / cells
	var face []float32
	ns = timeCalls(budget, 5, func() { face = blk.PackFace(grid.XHi, face[:0]) })
	v["grid.pack_face_us"] = ns / 1e3

	rhs := core.NewRHS(n)
	out := make([]float32, n*n*n*physics.NQ)
	ns = timeCalls(budget, 5, func() { rhs.Compute(lab, g.H, out) })
	flops, bytes := float64(core.RHSFlopsPerCell(n)), float64(core.RHSBytesPerCell(n))
	v["core.rhs_ns_per_cell"] = ns / cells
	v["core.rhs_gflops"] = flops * cells / ns // computed FLOPs over measured time
	v["core.rhs_flop_per_byte"] = flops / bytes
	v["core.rhs_roofline_frac"] = ratio(flops*cells/ns, host.Attainable(flops/bytes))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 4; i++ {
		rhs.Compute(lab, g.H, out)
	}
	runtime.ReadMemStats(&m1)
	v["core.rhs_allocs_per_call"] = float64(m1.Mallocs-m0.Mallocs) / 4

	u := append([]float32(nil), blk.Data...)
	reg := make([]float32, len(u))
	ns = timeCalls(budget, 5, func() { rhs.ComputeFused(lab, g.H, u, reg, core.RK3A[1], core.RK3B[1], 0) })
	v["core.fused_ns_per_cell"] = ns / cells
	vec := core.NewRHSVec(n)
	ns = timeCalls(budget, 5, func() { vec.Compute(lab, g.H, out) })
	v["core.rhs_vec_ns_per_cell"] = ns / cells
	ns = timeCalls(budget, 5, func() { core.UpdateScalar(u, reg, out, core.RK3A[1], core.RK3B[1], 0) })
	v["core.update_ns_per_value"] = ns / float64(len(u))
	var vel float64
	ns = timeCalls(budget, 5, func() { vel = core.MaxCharVelScalar(blk.Data) })
	v["core.sos_ns_per_cell"] = ns / cells
	if !finite(vel) {
		return fmt.Errorf("MaxCharVelScalar returned %v", vel)
	}

	// node: the same 8 blocks on one worker and on two. T1/(2·T2) is the
	// pool's parallel efficiency against the plain single-threaded run.
	outs := make([][]float32, len(g.Blocks))
	for i := range outs {
		outs[i] = make([]float32, len(out))
	}
	single := node.New(g, r.Cfg.BC, 1, false)
	t1 := timeCalls(budget, 3, func() { single.ComputeRHS(g.Blocks, outs) })
	single.Close()
	t2 := timeCalls(budget, 3, func() { r.Engine.ComputeRHS(g.Blocks, outs) })
	v["node.parallel_efficiency"] = ratio(t1, float64(r.Engine.Workers())*t2)
	v["node.rhs_stage_ms"] = t2 / 1e6
	const items = 1000
	ns = timeCalls(budget, 5, func() { r.Engine.Parallel("probe", items, func(w, i int) {}) })
	v["node.dispatch_us_per_task"] = ns / 1e3 / items

	// wavelet + compress on the warmed-up pressure field.
	field := make([]float32, n*n*n)
	work := make([]float32, len(field))
	compress.Pressure.Extract(blk, field)
	fwt := wavelet.NewFWT3(n)
	ns = timeCalls(budget, 5, func() {
		copy(work, field)
		fwt.Forward(work)
	})
	v["wavelet.fwt_ns_per_cell"] = ns / cells
	for _, coder := range coders {
		opt := compress.Options{Epsilon: 1e-2, Encoder: coder, Workers: r.Engine.Workers(), Parallel: r.Engine.Parallel}
		var comp *compress.Compressed
		var st compress.Stats
		var err error
		ns = timeCalls(budget, 3, func() { comp, st, err = compress.Compress(g, compress.Pressure, opt) })
		if err != nil {
			return err
		}
		v["compress.mb_per_s."+coder] = float64(st.RawBytes) / 1e6 / (ns / 1e9)
		v["compress.ratio."+coder] = st.Rate()
		if coder == "zlib" {
			dec, enc := float64(sum(st.DecTimes)), float64(sum(st.EncTimes))
			v["compress.enc_imbalance"] = compress.Imbalance(st.EncTimes)
			v["compress.dec_share"] = ratio(dec, dec+enc)
			v["compress.enc_share"] = ratio(enc, dec+enc)
		}
		ns = timeCalls(budget, 3, func() { _, err = comp.Decompress() })
		if err != nil {
			return err
		}
		v["compress.decompress_mb_per_s."+coder] = float64(st.RawBytes) / 1e6 / (ns / 1e9)
	}

	// Last, because it overwrites the state: the O(cells × bubbles) fill.
	t0 := time.Now()
	r.Initialize(c.Config.Cluster.Init)
	v["cluster.initialize_ms"] = time.Since(t0).Seconds() * 1e3
	return nil
}

// loopStats is what rank 0 measured in one two-rank step loop.
type loopStats struct {
	wallS                float64 // the pipelined steps
	maxdtMS, rkMS        []float64
	stagedMS             []float64 // RKStep with the pipeline off
	ghostMS, waitMS      float64   // per step
	diagMS, totalsMS     []float64
	totals               cluster.Totals
	haloMsgs, haloBytes  int   // per step, rank 0
	netBytes             int64 // rank 0's wire bytes over the pipelined steps
	retransmits, reconns int64
}

// probeCluster hand-drives a two-rank step loop at the workload's block size
// on the inproc transport (pipelined, then staged on the same ranks, then
// one snapshot) and on tcp, and checks that both transports end on bitwise
// equal conserved totals.
func probeCluster(sp spec, e *env, v values) error {
	shape := spec{
		name: "probe", n: sp.n, ranks: [3]int{2, 1, 1}, blocks: [3]int{1, 2, 2},
		workers: 1, diagEvery: 1, auditEvery: 1,
	}
	// About a second of steps per loop: 3 at 32³, 48 at 8³.
	shape.steps = max(3, int(200_000*e.probeScale)/(shape.cells()/2))
	dir, err := e.tempDir("probe-")
	if err != nil {
		return err
	}

	in, err := stepLoop(shape, e.seed, false, dir, v)
	if err != nil {
		return fmt.Errorf("inproc loop: %w", err)
	}
	tcp, err := stepLoop(shape, e.seed, true, dir, v)
	if err != nil {
		return fmt.Errorf("tcp loop: %w", err)
	}
	terr := sameTotals(in.totals, tcp.totals)
	e.chk.ok(terr == nil, "tcp and inproc totals differ after %d steps: %v", shape.steps, terr)

	// The halo exchange's shape is a count: it must repeat exactly.
	e.compare(sp, "halo", map[string]float64{
		"msgs_per_step": float64(in.haloMsgs), "bytes_per_step": float64(in.haloBytes),
	}, 0)

	steps := float64(shape.steps)
	v["cluster.maxdt_ms"] = median(in.maxdtMS)
	v["cluster.rkstep_ms"] = median(in.rkMS)
	v["cluster.ghost_ms_per_step"] = in.ghostMS
	v["cluster.halo_wait_ms_per_step"] = in.waitMS
	v["cluster.diagnose_ms"] = median(in.diagMS)
	v["cluster.totals_ms"] = median(in.totalsMS)
	v["cluster.halo_msgs_per_step"] = float64(in.haloMsgs)
	v["cluster.halo_bytes_per_step"] = float64(in.haloBytes)
	v["cluster.pipelined_over_staged"] = ratio(median(in.rkMS), median(in.stagedMS))
	v["transport.tcp_over_inproc"] = ratio(tcp.wallS, in.wallS)
	v["transport.bytes_sent_per_step"] = float64(tcp.netBytes) / steps
	v["transport.retransmits"] = float64(tcp.retransmits)
	v["transport.reconnects"] = float64(tcp.reconns)
	fmt.Fprintf(e.info, "step loop 2 ranks x %v blocks of %d^3, %d steps: inproc %.4g s, tcp %.4g s; rkstep pipelined %.4g ms, staged %.4g ms\n",
		shape.blocks, shape.n, shape.steps, in.wallS, tcp.wallS, median(in.rkMS), median(in.stagedMS))
	return nil
}

// stepLoop runs shape's ranks through one warm-up step and shape.steps timed
// pipelined steps. The inproc loop goes on to the staged steps and the
// snapshot probe (files in dir, metrics into v) on the same ranks.
func stepLoop(shape spec, seed int64, tcp bool, dir string, v values) (loopStats, error) {
	c, err := buildCase(shape, seed)
	if err != nil {
		return loopStats{}, err
	}
	var m *mesh
	var reg *telemetry.Registry
	if tcp {
		reg = telemetry.NewRegistry()
		if m, err = meshTCP(2, reg); err != nil {
			return loopStats{}, err
		}
	}
	rank0Counter := func(name string) int64 {
		return reg.Counter(name, "", telemetry.Labels{"rank": "0"}).Value()
	}
	var ls loopStats
	var snapErr error
	err = m.run(2, func(comm *mpi.Comm) {
		rank0 := comm.Rank() == 0
		r := cluster.NewRank(comm, c.Config.Cluster)
		defer r.Close()
		r.Advance()
		comm.Barrier()
		ghost0, wait0 := r.CommPhases()
		sent0 := rank0Counter("mpcf_net_bytes_sent")
		t0 := time.Now()
		for i := 0; i < shape.steps; i++ {
			t := time.Now()
			dt := r.MaxDT()
			mid := time.Now()
			r.RKStep(dt)
			end := time.Now()
			// Diagnostics every step, as tiny8_tcp2 runs them: their
			// collectives are part of what a transport costs per step.
			r.Diagnose(c.Config.Wall, c.Config.HasWall)
			if rank0 {
				ls.maxdtMS = append(ls.maxdtMS, mid.Sub(t).Seconds()*1e3)
				ls.rkMS = append(ls.rkMS, end.Sub(mid).Seconds()*1e3)
				ls.diagMS = append(ls.diagMS, time.Since(end).Seconds()*1e3)
			}
		}
		if rank0 {
			ls.wallS = time.Since(t0).Seconds()
			ghost1, wait1 := r.CommPhases()
			ls.ghostMS = (ghost1 - ghost0).Seconds() * 1e3 / float64(shape.steps)
			ls.waitMS = (wait1 - wait0).Seconds() * 1e3 / float64(shape.steps)
			ls.netBytes = rank0Counter("mpcf_net_bytes_sent") - sent0
			ls.retransmits = rank0Counter("mpcf_net_retransmits")
			ls.reconns = rank0Counter("mpcf_net_reconnects")
			// One message per link and RK stage.
			links := r.Links()
			ls.haloMsgs = 3 * len(links)
			for _, lk := range links {
				ls.haloBytes += 3 * 4 * r.G.Blocks[lk.Block].HaloSize()
			}
		}
		for i := 0; i < 3; i++ {
			t := time.Now()
			tot := r.ConservedTotals()
			if rank0 {
				ls.totalsMS = append(ls.totalsMS, time.Since(t).Seconds()*1e3)
				ls.totals = tot
			}
		}
		if tcp {
			return
		}
		// The staged execution model on the same ranks: Rank.RKStep reads
		// Cfg.Pipeline on every call.
		r.Cfg.Pipeline = false
		r.Advance()
		for i := 0; i < shape.steps; i++ {
			dt := r.MaxDT()
			t := time.Now()
			r.RKStep(dt)
			if rank0 {
				ls.stagedMS = append(ls.stagedMS, time.Since(t).Seconds()*1e3)
			}
		}
		if err := probeSnapshot(r, dir, v); err != nil && rank0 {
			snapErr = err
		}
	})
	if err == nil {
		err = snapErr
	}
	return ls, err
}

// probeSnapshot times the legs of one snapshot separately, which the
// workload's single DumpTo call does not allow: the shared-file write, the
// streamed frame, the read, and the checkpoint in both directions. Three
// repetitions each, median. Collective; rank 0 reports.
func probeSnapshot(r *cluster.Rank, dir string, v values) error {
	rank0 := r.Comm.Rank() == 0
	path, ckpt := filepath.Join(dir, "p.mpcf"), filepath.Join(dir, "state.ckp")
	stateMB := float64(r.G.Desc.Cells()) * physics.NQ * 4 / 1e6
	io := func() time.Duration { return r.Mon.Kernel("IO").Stats().Total }
	var writeMS, streamMS, readMS, saveS, restoreS []float64
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for i := 0; i < 3; i++ {
		t := io()
		_, _, err := r.DumpTo(cluster.DumpTarget{Path: path}, compress.Pressure, 1e-2, "zlib")
		note(err)
		writeMS = append(writeMS, (io()-t).Seconds()*1e3)
		t = io()
		_, _, err = r.DumpTo(cluster.DumpTarget{Stream: true}, compress.Pressure, 1e-2, "zlib")
		note(err)
		streamMS = append(streamMS, (io()-t).Seconds()*1e3)
		r.Comm.Barrier()
		if rank0 {
			t0 := time.Now()
			_, _, err := dump.Read(path)
			note(err)
			readMS = append(readMS, time.Since(t0).Seconds()*1e3)
		}
		t0 := time.Now()
		note(r.SaveCheckpoint(ckpt))
		r.Comm.Barrier()
		saveS = append(saveS, time.Since(t0).Seconds())
		t0 = time.Now()
		note(r.RestoreCheckpoint(ckpt))
		r.Comm.Barrier()
		restoreS = append(restoreS, time.Since(t0).Seconds())
	}
	if !rank0 {
		return firstErr
	}
	v["dump.write_ms"] = median(writeMS)
	v["dump.stream_ms"] = median(streamMS)
	v["dump.read_ms"] = median(readMS)
	v["checkpoint.write_mb_per_s"] = ratio(stateMB, median(saveS))
	v["checkpoint.restore_mb_per_s"] = ratio(stateMB, median(restoreS))
	for name, p := range map[string]string{"dump.file_bytes": path, "checkpoint.file_bytes": ckpt} {
		fi, err := os.Stat(p)
		note(err)
		if err == nil {
			v[name] = float64(fi.Size())
		}
	}
	return firstErr
}

// probeWire times the halo exchange's wire from outside, with a payload the
// size of one face halo of the workload's blocks, on both transports.
func probeWire(sp spec, v values) error {
	halo := 4 * grid.StencilWidth * sp.n * sp.n * grid.NQ // bytes, as Block.HaloSize counts floats
	if err := probeMPI("inproc", nil, halo, v); err != nil {
		return err
	}
	m, err := meshTCP(2, nil)
	if err != nil {
		return err
	}
	return probeMPI("tcp", m, halo, v)
}
