// Package sim is the simulation driver: it stands up the (simulated) MPI
// world, builds one cluster rank per process, and runs the paper's step
// loop — DT, three Runge-Kutta stages of RHS+UP, periodic compressed data
// dumps and flow diagnostics (Figure 1 left, §7).
package sim

import (
	"cmp"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"cubism/internal/cluster"
	"cubism/internal/compress"
	"cubism/internal/dump"
	"cubism/internal/grid"
	"cubism/internal/layout"
	"cubism/internal/mpi"
	"cubism/internal/perf"
	"cubism/internal/physics"
	"cubism/internal/telemetry"
	"cubism/internal/wavelet"
)

// Config describes one simulation campaign.
type Config struct {
	Cluster cluster.Config

	// Steps is the number of time steps to run (0: run to TEnd).
	Steps int
	// TEnd stops the run when simulated time reaches it (0: ignore).
	TEnd float64

	// DumpEvery triggers a compressed dump of p and Γ every so many steps
	// (0: never). Paper: every 100 steps.
	DumpEvery int
	// DumpDir receives the dump files.
	DumpDir string
	// EpsP and EpsG are the decimation thresholds (paper: 1e-2 and 1e-3).
	EpsP, EpsG float64
	// Encoder is the lossless back-end ("zlib" default; also "rle", "sig",
	// "huff").
	Encoder string

	// StreamFrames additionally ships every dump as an assembled frame to
	// the rank-0 sink over the dedicated TagDump transport channel. The
	// streaming is collective, so the flag must be uniform across the
	// fleet. The frame bytes are identical to the dump file's.
	StreamFrames bool
	// FrameSink receives assembled frames on rank 0 (ignored elsewhere).
	// May be nil with StreamFrames set: frames are then assembled and
	// dropped, keeping the network work uniform.
	FrameSink dump.FrameSink

	// DiagEvery computes global diagnostics every so many steps (0: every
	// step).
	DiagEvery int
	// CheckpointEvery writes a lossless full-state checkpoint every so many
	// steps (0: never) to CheckpointPath.
	CheckpointEvery int
	CheckpointPath  string
	// RestorePath, when non-empty, resumes the run from a checkpoint before
	// the first step: the grid state, step counter and simulated time are
	// replaced by the checkpoint contents (the block size and global block
	// box must match the writer's; the layout and rank count may differ).
	// This is the recovery path after a rank failure: relaunch the job with
	// RestorePath pointing at the last checkpoint (mpcf-sim -restore; see
	// docs/networking.md).
	RestorePath string
	// Wall marks a reflecting wall face for wall-pressure diagnostics.
	Wall    grid.Face
	HasWall bool

	// AuditEvery computes the global conserved-quantity totals every so
	// many steps (0: never) and delivers them in StepInfo.Totals and the
	// structured step log — the verification subsystem's conservation
	// audit. It costs one grid sweep plus reductions per audited step.
	AuditEvery int

	// RebalanceEvery checks the cross-rank load balance every so many
	// steps (0: never) and migrates blocks along the layout's curve when
	// max/avg − 1 of the per-rank pool load exceeds RebalanceThreshold.
	// Effective only under an SFC cluster layout (Cluster.Layout).
	RebalanceEvery int
	// RebalanceThreshold is the imbalance that triggers a rebalance
	// (0: default 0.1).
	RebalanceThreshold float64
	// ForceRebalanceStep, when > 0, forces one cut recomputation and
	// migration after that step regardless of measured imbalance — the
	// migration-determinism test and chaos-suite hook.
	ForceRebalanceStep int

	// Control (optional) attaches a cancellation controller: Stop() ends
	// the run at the next step boundary. The stop flag rides the DT
	// reduction every rank issues each step, so every rank stops at the
	// same step and a Stop on any one rank of a distributed world stops the
	// whole fleet. See Controller.
	Control *Controller
	// StopCheckpoint writes a final checkpoint to CheckpointPath when a
	// controller stop ends the run, even when periodic checkpointing
	// (CheckpointEvery) is off — the job-cancel and graceful-drain hook:
	// a stopped run can resume from exactly the stop boundary via
	// RestorePath. CheckpointEvery > 0 implies the same final write.
	StopCheckpoint bool

	// OnFinish (optional) is invoked on every rank after the last step with
	// the rank state still live; the verification harness samples the final
	// fields here. It runs before the summary is assembled.
	OnFinish func(r *cluster.Rank)

	// Telemetry (optional) attaches the tracer, metrics registry and
	// structured step log. Nil disables all instrumentation beyond a
	// per-phase pointer check; when set, the tracer is also threaded into
	// the cluster and node layers (unless Cluster.Tracer is already set).
	// It issues no collectives, so it may differ between ranks.
	Telemetry *telemetry.Set

	// Observe (optional) enables the cross-rank performance observatory:
	// per-phase step samples (plus spans and counters on distributed
	// worlds) stream to rank 0 at every step boundary, which writes a
	// merged clock-aligned Chrome trace and a Table-4-shaped imbalance
	// report. See ObserveConfig.
	Observe *ObserveConfig

	// World (optional) supplies a pre-built communication world — a
	// distributed one from mpi.ConnectTCP, or a test's inproc world. Nil
	// builds the default in-process world sized to Cluster.RankDims. Its
	// size must equal the rank-dims product.
	World *mpi.World
}

// StepInfo is delivered to the per-step callback on rank 0.
type StepInfo struct {
	Step int
	Time float64
	DT   float64
	// WallMS is rank 0's wall-clock time for this step in milliseconds
	// (DT, RK, dumps, checkpoints and the end-of-step fold).
	WallMS float64
	// Imbalance is max/avg − 1 of the ranks' step times up to the
	// end-of-step fold, which computes it every step.
	Imbalance float64
	// Diag is valid when HasDiag is set (DiagEvery cadence).
	Diag    cluster.Diagnostics
	HasDiag bool
	// Totals is valid when HasTotals is set (AuditEvery cadence).
	Totals    cluster.Totals
	HasTotals bool
	// Rebalance is valid when HasRebalance is set: this step ran a
	// rebalance check (RebalanceEvery/ForceRebalanceStep cadence).
	Rebalance    cluster.RebalanceResult
	HasRebalance bool
	// DumpRates lists quantity:rate pairs when this step dumped.
	DumpRates map[string]float64
	// DumpMBps is the encoded dump bitrate in MB/s when this step dumped.
	DumpMBps float64
	// FrameBytes is the number of streamed-frame bytes this rank moved
	// over the TagDump channel when this step dumped with StreamFrames.
	FrameBytes int64
	// PhaseMS is this rank's wall-clock time per phase during this step in
	// milliseconds: each perf-monitor kernel plus the cluster layer's
	// ghost_exchange and halo_wait (which overlaps RHS/RHSUP, so the
	// phases do not add up to WallMS). Phases that took no time are absent.
	PhaseMS map[string]float64
}

// Record is the serialized step: the one shape the step log writes and the
// job service streams.
func (s StepInfo) Record() telemetry.StepRecord {
	rec := telemetry.StepRecord{
		Step: s.Step, Time: s.Time, DT: s.DT,
		WallMS: s.WallMS, KernelMS: s.PhaseMS, Imbalance: s.Imbalance,
		DumpRates: s.DumpRates, DumpMBps: s.DumpMBps,
	}
	if s.HasDiag {
		rec.HasDiag = true
		rec.MaxPressure = s.Diag.MaxPressure
		rec.WallPressure = s.Diag.WallPressure
		rec.KineticEnergy = s.Diag.KineticEnergy
		rec.EquivRadius = s.Diag.EquivRadius
	}
	if s.HasTotals {
		t := s.Totals
		rec.HasTotals = true
		rec.TotalMass = t.Mass
		rec.TotalMom = []float64{t.MomX, t.MomY, t.MomZ}
		rec.TotalEnergy = t.Energy
		rec.GammaRange = []float64{t.GammaMin, t.GammaMax}
		rec.PiRange = []float64{t.PiMin, t.PiMax}
		rec.NonFinite = t.NonFinite
	}
	return rec
}

// phaseMeter takes a rank's per-step phase times: the deltas of its perf
// monitor's cumulative kernel totals and of its communication-phase
// counters since the previous step.
type phaseMeter map[string]time.Duration

// measure returns the phase times since the previous call, in ms.
func (m phaseMeter) measure(r *cluster.Rank) map[string]float64 {
	ghost, wait := r.CommPhases()
	cur := map[string]time.Duration{"ghost_exchange": ghost, "halo_wait": wait}
	for _, name := range r.Mon.Names() {
		cur[name] = r.Mon.Kernel(name).Stats().Total
	}
	phases := map[string]float64{}
	for name, t := range cur {
		if d := t - m[name]; d > 0 {
			phases[name] = float64(d.Nanoseconds()) / 1e6
		}
		m[name] = t
	}
	return phases
}

// Summary reports campaign-level results gathered on rank 0.
type Summary struct {
	Steps        int
	SimTime      float64
	WallTime     time.Duration
	GlobalCells  int64
	PointsPerSec float64
	// KernelShare maps kernel name to its fraction of the total kernel
	// wall-clock time on rank 0 (Figure 7 left).
	KernelShare map[string]float64
	// Kernels holds rank 0's full per-kernel statistics, keyed by kernel
	// name (machine-readable counterpart of Report).
	Kernels map[string]perf.Stats
	// Report is rank 0's full perf table.
	Report string
	// Observatory is the cross-rank imbalance report, present when
	// Config.Observe was set.
	Observatory *telemetry.ImbalanceReport
	// Stopped marks a run ended early by a Controller stop (a graceful
	// drain, not a failure); StopReason carries the rank-0 controller's
	// recorded reason ("" when the stop originated on another rank).
	Stopped    bool
	StopReason string
}

// Check reports the configuration errors that would otherwise surface as a
// panic inside a rank goroutine: a bad layout name or a non-positive rank
// or block dim, a block edge below twice the stencil width, an unknown
// encoder, and dumps on a block edge the wavelet cannot transform (not a
// power of two of at least wavelet.MinLen). Run calls it before any rank
// starts; the service runs it on a job's config at submit time.
func Check(cfg Config) error {
	cc := cfg.Cluster
	nRanks := cc.RankDims[0] * cc.RankDims[1] * cc.RankDims[2]
	if err := layout.Check(cc.Layout, cc.RankDims, cc.BlockDims, nRanks); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	n := cc.BlockSize
	if n < 2*grid.StencilWidth {
		return fmt.Errorf("sim: block size %d smaller than twice the stencil width %d",
			n, grid.StencilWidth)
	}
	if _, err := compress.NewEncoder(cmp.Or(cfg.Encoder, "zlib")); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if cfg.DumpEvery > 0 && (n < wavelet.MinLen || n&(n-1) != 0) {
		return fmt.Errorf("sim: dumps need a power-of-two block size of at least %d, not %d",
			wavelet.MinLen, n)
	}
	return nil
}

// Run executes the campaign. onStep (may be nil) is invoked on rank 0 after
// every step. Returns the rank-0 summary.
func Run(cfg Config, onStep func(StepInfo)) (Summary, error) {
	if err := Check(cfg); err != nil {
		return Summary{}, err
	}
	if cfg.Encoder == "" {
		cfg.Encoder = "zlib"
	}
	if cfg.EpsP == 0 {
		cfg.EpsP = 1e-2
	}
	if cfg.EpsG == 0 {
		cfg.EpsG = 1e-3
	}
	cc := cfg.Cluster
	nRanks := cc.RankDims[0] * cc.RankDims[1] * cc.RankDims[2]
	world := cfg.World
	if world == nil {
		world = mpi.NewWorld(nRanks)
	} else if world.Size() != nRanks {
		return Summary{}, fmt.Errorf("sim: world size %d does not match rank dims %v",
			world.Size(), cc.RankDims)
	}

	tel := cfg.Telemetry
	if tel != nil && cfg.Cluster.Tracer == nil {
		cfg.Cluster.Tracer = tel.Tracer
	}
	tracer := cfg.Cluster.Tracer
	reg := tel.GetMetrics()
	stepLog := tel.GetStepLog()

	// Rank-0 metric instruments, registered up front so the step loop only
	// stores values.
	var (
		stepHist                 *telemetry.Histogram
		stepsTotal               *telemetry.Counter
		simTimeG, dtG            *telemetry.Gauge
		imbalanceG, dumpMBpsG    *telemetry.Gauge
		pointsRateG, cellsGauge  *telemetry.Gauge
		poolWorkersG, poolQueueG *telemetry.Gauge
		poolBusyG                *telemetry.Gauge
		migrationsC              *telemetry.Counter
		streamBytesC             *telemetry.Counter
		layoutBlocksG            []*telemetry.Gauge
	)
	if reg != nil {
		stepHist = reg.Histogram("mpcf_step_latency_seconds",
			"wall-clock simulation step latency", telemetry.StepLatencyBuckets, nil)
		stepsTotal = reg.Counter("mpcf_steps_total", "completed simulation steps", nil)
		simTimeG = reg.Gauge("mpcf_sim_time", "simulated time", nil)
		dtG = reg.Gauge("mpcf_dt_seconds", "current CFL time step", nil)
		imbalanceG = reg.Gauge("mpcf_step_imbalance",
			"cross-rank step-time max/avg-1", nil)
		dumpMBpsG = reg.Gauge("mpcf_dump_mbps", "encoded dump bitrate, MB/s", nil)
		pointsRateG = reg.Gauge("mpcf_points_per_second",
			"sustained grid points per second", nil)
		cellsGauge = reg.Gauge("mpcf_global_cells", "global cell count", nil)
		poolWorkersG = reg.Gauge("mpcf_pool_workers",
			"worker goroutines spawned by the rank-0 engine pool", nil)
		poolQueueG = reg.Gauge("mpcf_pool_queue_depth",
			"tasks waiting in the rank-0 pool queue", nil)
		poolBusyG = reg.Gauge("mpcf_pool_busy_ratio",
			"rank-0 pool busy time over busy+idle time", nil)
		migrationsC = reg.Counter("mpcf_migrations_total",
			"blocks migrated by layout rebalances, all ranks", nil)
		streamBytesC = reg.Counter("mpcf_dump_stream_bytes_total",
			"compressed-frame bytes this process moved over the TagDump channel", nil)
		layoutBlocksG = make([]*telemetry.Gauge, nRanks)
		for rk := range layoutBlocksG {
			layoutBlocksG[rk] = reg.Gauge("mpcf_layout_blocks",
				"blocks owned per rank under the current layout",
				telemetry.Labels{"rank": fmt.Sprint(rk)})
		}
	}

	var summary Summary
	var runErr error
	var errMu sync.Mutex
	fail := func(err error) { // every in-process rank may fail; the first error wins
		errMu.Lock()
		defer errMu.Unlock()
		if runErr == nil {
			runErr = err
		}
	}
	world.Run(func(comm *mpi.Comm) {
		r := cluster.NewRank(comm, cfg.Cluster)
		defer r.Close()
		if cfg.RestorePath != "" {
			if err := r.RestoreCheckpoint(cfg.RestorePath); err != nil {
				fail(fmt.Errorf("sim: restore: %w", err))
				return
			}
		}
		root := comm.Rank() == 0
		startStep := r.Step // non-zero after a checkpoint restore
		meter := phaseMeter{}
		var obs *observer
		if cfg.Observe != nil {
			obs = newObserver(*cfg.Observe, comm, cfg.Cluster.Tracer, reg,
				world.Distributed())
			// The first sync happens before any step, so even a run killed
			// mid-step leaves clock-aligned spans in the partial artifacts.
			obs.syncClocks()
		}
		if root {
			cellsGauge.Set(float64(r.G.Desc.Cells()))
			for rk, gauge := range layoutBlocksG {
				gauge.Set(float64(len(r.Layout.Blocks(rk))))
			}
		}
		sched := cluster.Schedule{DiagEvery: max(cfg.DiagEvery, 1), AuditEvery: cfg.AuditEvery,
			Wall: cfg.Wall, HasWall: cfg.HasWall}
		start := time.Now()
		stopped := false
		for {
			if cfg.Steps > 0 && r.Step >= cfg.Steps {
				break
			}
			if cfg.TEnd > 0 && r.Time >= cfg.TEnd {
				break
			}
			if cfg.Steps == 0 && cfg.TEnd == 0 {
				break
			}
			stepStart := time.Now()
			stepSpan := tracer.StartSpan("step", comm.Rank(), 0)
			// The step's first collective: the stop flag rides the DT
			// reduction, so every rank agrees on the stop step and any
			// single rank's Stop drains the whole world.
			dt, stop := r.BeginStep(cfg.Control.StopRequested())
			if stop {
				// All ranks agreed on the stop step; acknowledge before
				// the checkpoint write so supervisors cancel force-exit
				// fallbacks that would kill it mid-write.
				cfg.Control.Acknowledge()
				if cfg.CheckpointPath != "" && (cfg.StopCheckpoint || cfg.CheckpointEvery > 0) {
					// The final consistent checkpoint of the drain: all
					// ranks stopped at the same boundary, so the job can
					// resume from exactly here.
					if err := r.SaveCheckpoint(cfg.CheckpointPath); err != nil {
						fail(err)
						return
					}
				}
				stopped = true
				break
			}
			info := StepInfo{Step: r.Step, Time: r.Time, DT: dt}

			if cfg.DumpEvery > 0 && r.Step%cfg.DumpEvery == 0 {
				rates := map[string]float64{}
				dumpStart := time.Now()
				var encoded int64
				for _, dq := range []struct {
					q   compress.Quantity
					eps float64
				}{{compress.Pressure, cfg.EpsP}, {compress.Gamma, cfg.EpsG}} {
					target := cluster.DumpTarget{
						Path: filepath.Join(cfg.DumpDir,
							fmt.Sprintf("%s_step%06d.mpcf", dq.q, r.Step)),
						Stream: cfg.StreamFrames,
					}
					if root {
						target.Sink = cfg.FrameSink
					}
					st, streamed, err := r.DumpTo(target, dq.q, dq.eps, cfg.Encoder)
					if err != nil {
						fail(err)
						return
					}
					rates[dq.q.String()] = st.Rate()
					encoded += st.Encoded
					info.FrameBytes += streamed
				}
				info.DumpRates = rates
				if d := time.Since(dumpStart).Seconds(); d > 0 {
					info.DumpMBps = float64(encoded) / 1e6 / d
				}
				if streamBytesC != nil && info.FrameBytes > 0 {
					streamBytesC.Add(info.FrameBytes)
				}
			}
			if cfg.CheckpointEvery > 0 && r.Step%cfg.CheckpointEvery == 0 {
				if err := r.SaveCheckpoint(cfg.CheckpointPath); err != nil {
					fail(err)
					return
				}
			}
			// The step's second and last collective; the imbalance input is
			// the step time up to here.
			f := r.EndStep(sched, time.Since(stepStart).Seconds())
			info.Imbalance = f.Imbalance
			info.Diag, info.HasDiag = f.Diag, f.HasDiag
			info.Totals, info.HasTotals = f.Totals, f.HasTotals
			info.PhaseMS = meter.measure(r)
			stepSpan.End()
			info.WallMS = time.Since(stepStart).Seconds() * 1e3
			if obs != nil {
				// Step-boundary observatory flush: the step's last ghost
				// exchange already opened a fresh tag epoch, so the batch
				// and sync tags cannot collide with halo traffic.
				if err := obs.flush(telemetry.PhaseSample{Step: info.Step,
					WallMS: info.WallMS, PhaseMS: info.PhaseMS}); err != nil {
					fail(err)
					return
				}
			}
			forced := cfg.ForceRebalanceStep > 0 && r.Step == cfg.ForceRebalanceStep
			if forced || (cfg.RebalanceEvery > 0 && r.Step%cfg.RebalanceEvery == 0) {
				// Collective rebalance check at the step boundary, outside
				// any halo epoch. The decision is uniform across ranks.
				thr := cfg.RebalanceThreshold
				if thr <= 0 {
					thr = 0.1
				}
				info.Rebalance = r.Rebalance(thr, forced)
				info.HasRebalance = true
				if root && info.Rebalance.Rebalanced {
					if migrationsC != nil {
						migrationsC.Add(int64(info.Rebalance.Moved))
					}
					for rk, gauge := range layoutBlocksG {
						gauge.Set(float64(len(r.Layout.Blocks(rk))))
					}
				}
			}
			if root {
				if reg != nil {
					stepHist.Observe(info.WallMS / 1e3)
					stepsTotal.Inc()
					simTimeG.Set(r.Time)
					dtG.Set(dt)
					imbalanceG.Set(info.Imbalance)
					if info.DumpMBps > 0 {
						dumpMBpsG.Set(info.DumpMBps)
					}
					if el := time.Since(start).Seconds(); el > 0 {
						pointsRateG.Set(float64(r.G.Desc.Cells()) *
							float64(r.Step-startStep) / el)
					}
					ps := r.Engine.PoolStats()
					poolWorkersG.Set(float64(ps.Spawned))
					poolQueueG.Set(float64(ps.QueueDepth))
					if tot := ps.BusyNS + ps.IdleNS; tot > 0 {
						poolBusyG.Set(float64(ps.BusyNS) / float64(tot))
					}
					r.Mon.Export(reg, tel.PeakGFLOPS)
				}
				if stepLog != nil {
					if err := stepLog.Log(info.Record()); err != nil {
						fail(err)
						return
					}
				}
				if onStep != nil {
					onStep(info)
				}
			}
		}
		if cfg.OnFinish != nil {
			cfg.OnFinish(r)
		}
		var obsReport *telemetry.ImbalanceReport
		if obs != nil {
			rep, err := obs.finish()
			if err != nil {
				fail(err)
				return
			}
			obsReport = rep
		}
		if root {
			wall := time.Since(start)
			cells := int64(r.G.Desc.Cells())
			summary = Summary{
				Steps:       r.Step,
				SimTime:     r.Time,
				WallTime:    wall,
				GlobalCells: cells,
				KernelShare: map[string]float64{},
				Kernels:     map[string]perf.Stats{},
				Report:      r.Mon.Report(),
				Observatory: obsReport,
				Stopped:     stopped,
				StopReason:  cfg.Control.Reason(),
			}
			if wall > 0 && r.Step > startStep {
				// Rate over the steps this run actually executed (a restored
				// run inherits the checkpoint's step counter).
				summary.PointsPerSec = float64(cells) * float64(r.Step-startStep) / wall.Seconds()
			}
			for _, k := range []string{"RHS", "UP", "RHSUP", "DT", "IO_WAVELET"} {
				summary.KernelShare[k] = r.Mon.Share(k)
			}
			for _, name := range r.Mon.Names() {
				summary.Kernels[name] = r.Mon.Kernel(name).Stats()
			}
		}
	})
	if runErr == nil {
		runErr = world.Err() // distributed shutdown failure, nil otherwise
	}
	return summary, runErr
}

// SodInit returns the classic Sod shock tube initial condition along x,
// posed in a single-phase ideal gas (Γ, Π constant), used by the validation
// tests and the quickstart example.
func SodInit(x, y, z float64) physics.Prim {
	g := 1 / (1.4 - 1)
	if x < 0.5 {
		return physics.Prim{Rho: 1, P: 1, G: g, Pi: 0}
	}
	return physics.Prim{Rho: 0.125, P: 0.1, G: g, Pi: 0}
}
