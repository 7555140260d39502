// mpcf-sim is the production-style simulation driver: cloud cavitation
// collapse with configurable decomposition, dumps, diagnostics and
// telemetry (see docs/observability.md).
//
// Usage examples:
//
//	mpcf-sim -steps 200                          # default small cloud
//	mpcf-sim -scenario cloud                     # registry case with wall + β
//	mpcf-sim -scenario cloud -beta 3             # target interaction parameter
//	mpcf-sim -scenario shockbubble               # shock-induced collapse
//	mpcf-sim -ranks 2,2,2 -blocks 2,2,2 -n 16    # 8 simulated MPI ranks
//	mpcf-sim -bubbles 40 -wall -dump-every 100 -dump-dir out/
//	mpcf-sim -case sod                           # validation case
//	mpcf-sim -steps 20 -trace out.trace.json -telemetry-addr :0
//	mpcf-sim -step-log steps.jsonl -quiet
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cubism"
	"cubism/internal/cluster"
	"cubism/internal/mpi"
	"cubism/internal/transport/faulty"
)

// cli is one parsed command line: the run description plus the process
// settings that are not part of it — this process's output sinks and how it
// joins a tcp fleet.
type cli struct {
	cfg    cubism.Config
	scn    *cubism.ScenarioCase // set by -scenario
	tcp    *mpi.TCPConfig       // set by -transport tcp; Size, sinks and OnError are filled at connect time
	banner string               // startup note on the initial condition, printed unless -quiet

	quiet                                 bool
	stopGrace                             time.Duration
	tracePath, telemetryAddr, stepLogPath string
	observablesPath, obsReport            string

	sumsErr error // written by the -sums hook on rank 0
}

func parseTriple(s string, def [3]int) ([3]int, error) {
	if s == "" {
		return def, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) == 1 {
		// A single value is cube shorthand: "4" == "4,4,4".
		parts = []string{parts[0], parts[0], parts[0]}
	}
	if len(parts) != 3 {
		return def, fmt.Errorf("expected one or three comma-separated values, got %q", s)
	}
	var out [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return def, fmt.Errorf("bad value %q: %v", p, err)
		}
		out[i] = v
	}
	return out, nil
}

// parse turns the command line into one run description. A -scenario run
// starts from the registry case's own Config (built from the decomposition
// and step flags) and a -case run from the production defaults — one rank,
// CFL 0.3, the pipelined step; the output, layout and checkpoint flags
// overlay both.
func parse(args []string) (*cli, error) {
	fs := flag.NewFlagSet("mpcf-sim", flag.ExitOnError)
	caseName := fs.String("case", "cloud", "initial condition: cloud, sod, bubble")
	scenarioName := fs.String("scenario", "", "named scenario from the registry (cloud, shockbubble, array); replaces -case and hand-rolled init")
	beta := fs.Float64("beta", 0, "target cloud interaction parameter β for -scenario cloud (picks the bubble count; mutually exclusive with -bubbles)")
	ranks := fs.String("ranks", "", "rank grid, e.g. 2,2,2 (default 1,1,1)")
	blocks := fs.String("blocks", "", "blocks per rank, e.g. 4,4,4")
	n := fs.Int("n", 16, "block edge in cells (paper production: 32)")
	steps := fs.Int("steps", 100, "number of time steps")
	workers := fs.Int("workers", 0, "workers per rank (0: NumCPU)")
	layoutName := fs.String("layout", "", "block-to-rank layout: cartesian (default), hilbert, morton or rowmajor (see docs/sharding.md)")
	rebalanceEvery := fs.Int("rebalance-every", 0, "measure load imbalance every so many steps and migrate blocks on SFC layouts when it exceeds the threshold (0: never)")
	rebalanceThreshold := fs.Float64("rebalance-threshold", 0, "max/avg-1 imbalance that triggers a rebalance (0: 0.1)")
	rebalanceForceStep := fs.Int("rebalance-force-step", 0, "force one rebalance at exactly this step regardless of imbalance (migration fault drill; 0: never)")
	bubbles := fs.Int("bubbles", 12, "bubbles in the cloud case")
	seed := fs.Int64("seed", 42, "cloud random seed")
	wall := fs.Bool("wall", false, "reflecting wall at z=0 with wall-pressure diagnostics")
	dumpEvery := fs.Int("dump-every", 0, "compressed dump cadence in steps (0: never)")
	dumpDir := fs.String("dump-dir", ".", "dump output directory")
	encoder := fs.String("encoder", "zlib", "dump encoder: zlib, rle, sig or huff")
	frameDir := fs.String("frame-dir", "", "stream every dump as an assembled frame over the TagDump channel and write the raw frame bytes (bitwise identical to the dump file) into this directory on rank 0")
	frameLog := fs.String("frame-log", "", "stream every dump as an assembled frame and append one JSONL record per frame (base64 payload) to this path on rank 0 — the file mpcf-serve tails into job \"frame\" events")
	diagEvery := fs.Int("diag-every", 10, "diagnostics cadence in steps")
	ckptEvery := fs.Int("checkpoint-every", 0, "write a lossless checkpoint every so many steps (0: never)")
	ckptPath := fs.String("checkpoint", "checkpoint.ckp", "checkpoint file path")
	restorePath := fs.String("restore", "", "resume from this checkpoint file (same block size and global block box, any layout and rank count; the recovery path after a rank failure)")
	stopCkpt := fs.Bool("stop-checkpoint", false, "write a final checkpoint at the stop boundary when a signal ends the run early (implied by -checkpoint-every > 0)")
	stopGrace := fs.Duration("stop-grace", 1500*time.Millisecond, "how long a signaled run may take to reach the next step boundary before the immediate flush-and-exit fallback fires")
	observablesPath := fs.String("observables", "", "write the scenario collapse observables (flat JSON metric map) to this path on rank 0 after the run (requires -scenario)")
	tracePath := fs.String("trace", "", "write a Chrome trace_event JSON timeline to this path (open in chrome://tracing or Perfetto)")
	telemetryAddr := fs.String("telemetry-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :9090; :0 picks a port; empty: disabled)")
	stepLogPath := fs.String("step-log", "", "write a JSONL structured step log to this path (- for stdout)")
	quiet := fs.Bool("quiet", false, "suppress per-step human output (final summary still printed)")
	transportName := fs.String("transport", "inproc", "rank transport: inproc (all ranks in this process) or tcp (this process is one rank)")
	rank := fs.Int("rank", 0, "this process's rank (tcp transport)")
	coord := fs.String("coord", "", "rendezvous coordinator host:port; rank 0 listens on it (tcp transport)")
	listen := fs.String("listen", "", "data listener bind address (tcp transport; empty picks a free port)")
	dialTimeout := fs.Duration("net-dial-timeout", 0, "rendezvous + mesh construction budget (0: 30s)")
	netHeartbeat := fs.Duration("net-heartbeat", 0, "idle-link heartbeat cadence (0: 2s; negative disables)")
	netPeerTimeout := fs.Duration("net-peer-timeout", 0, "declare a silent peer failed after this long (0: 30s)")
	netRetransmit := fs.Duration("net-retransmit", 0, "force a reconnect when acks stall this long (0: 3s; negative disables)")
	netMaxReconnect := fs.Int("net-max-reconnect", 0, "reconnect attempts per failure episode (0: 8; negative disables reconnect)")
	netChaos := fs.String("net-chaos", "", "inject seeded wire faults, e.g. drop=0.01,reset=0.001,seed=7 (fault drill; physics must stay bitwise identical)")
	sumsPath := fs.String("sums", "", "write final conserved-field checksums (hex float64 bits) to this file on rank 0")
	obsTrace := fs.String("obs-trace", "", "write the cluster-wide merged clock-aligned Chrome trace to this path on rank 0 (enables the cross-rank observatory)")
	obsReport := fs.String("obs-report", "", "write the Table-4-shaped cluster imbalance report (text) to this path on rank 0 (- for stderr)")
	obsReportJSON := fs.String("obs-report-json", "", "write the cluster imbalance report (JSON) to this path on rank 0")
	fs.Parse(args)

	o := &cli{
		quiet: *quiet, stopGrace: *stopGrace,
		tracePath: *tracePath, telemetryAddr: *telemetryAddr, stepLogPath: *stepLogPath,
		observablesPath: *observablesPath, obsReport: *obsReport,
	}
	rankDims, err := parseTriple(*ranks, [3]int{1, 1, 1})
	if err != nil {
		return nil, err
	}
	blockDims, err := parseTriple(*blocks, [3]int{4, 4, 4})
	if err != nil {
		return nil, err
	}
	if *scenarioName != "" {
		// The registry case is the run description; the decomposition and
		// step flags are its parameters.
		p := cubism.ScenarioParams{Ranks: rankDims, Blocks: blockDims, BlockSize: *n,
			Steps: *steps, Workers: *workers, Seed: *seed, DiagEvery: *diagEvery, Beta: *beta}
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "bubbles" {
				// Only forward an explicit count: the array scenario reads it
				// as the lattice edge, and -beta computes the cloud count.
				p.Bubbles = *bubbles
			}
		})
		c, err := cubism.BuildScenario(*scenarioName, p)
		if err != nil {
			return nil, err
		}
		o.scn, o.cfg = c, c.Config
		o.banner = fmt.Sprintf("scenario %s: %d bubbles", c.Name, len(c.Bubbles))
		if c.Beta > 0 {
			o.banner += fmt.Sprintf(", beta=%.3f, alpha0=%.4f", c.Beta, c.VoidFraction)
		}
		if c.RayleighTau > 0 {
			o.banner += fmt.Sprintf(", rayleigh tau=%.3e", c.RayleighTau)
		}
	} else {
		if *observablesPath != "" {
			return nil, errors.New("-observables requires -scenario (the metric map is defined by the scenario's analytic references)")
		}
		var init func(x, y, z float64) cubism.State
		switch *caseName {
		case "sod":
			init = cubism.SodInit
		case "bubble":
			init = cubism.CloudField([]cubism.Bubble{{X: 0.5, Y: 0.5, Z: 0.5, R: 0.15}}, 0.02)
		case "cloud":
			cloudBubbles, err := cubism.GenerateCloud(cubism.CloudSpec{
				Center: [3]float64{0.5, 0.5, 0.55},
				Radius: 0.3,
				N:      *bubbles,
				RMin:   0.04, RMax: 0.09,
				Seed: *seed,
			})
			if err != nil {
				return nil, err
			}
			o.banner = fmt.Sprintf("generated %d bubbles", len(cloudBubbles))
			init = cubism.CloudField(cloudBubbles, 0.015)
		default:
			return nil, fmt.Errorf("unknown case %q", *caseName)
		}
		o.cfg = cubism.Config{
			Cluster: cubism.ClusterConfig{
				RankDims:  rankDims,
				BlockDims: blockDims,
				BlockSize: *n,
				Extent:    1.0,
				Workers:   *workers,
				CFL:       0.3,
				Pipeline:  true,
				Init:      init,
			},
			Steps:     *steps,
			DiagEvery: *diagEvery,
		}
	}

	cfg := &o.cfg
	cfg.Cluster.Layout = *layoutName
	cfg.RebalanceEvery = *rebalanceEvery
	cfg.RebalanceThreshold = *rebalanceThreshold
	cfg.ForceRebalanceStep = *rebalanceForceStep
	cfg.DumpEvery, cfg.DumpDir, cfg.Encoder = *dumpEvery, *dumpDir, *encoder
	cfg.CheckpointEvery, cfg.CheckpointPath = *ckptEvery, *ckptPath
	cfg.RestorePath, cfg.StopCheckpoint = *restorePath, *stopCkpt
	if *wall {
		cfg.Cluster.BC = cubism.WallBC(cubism.ZLo)
		cfg.Wall = cubism.ZLo
		cfg.HasWall = true
	}
	if *obsTrace != "" || *obsReport != "" || *obsReportJSON != "" {
		cfg.Observe = &cubism.ObserveConfig{TracePath: *obsTrace, ReportJSONPath: *obsReportJSON}
		if *obsReport != "-" { // "-" is rendered to stderr after the run instead
			cfg.Observe.ReportPath = *obsReport
		}
	}
	if *sumsPath != "" {
		cfg.OnFinish = func(r *cluster.Rank) {
			tot := r.ConservedTotals() // collective: every rank participates
			if r.Comm.Rank() == 0 {
				o.sumsErr = writeChecksums(*sumsPath, tot)
			}
		}
	}
	switch *transportName {
	case "inproc", "":
	case "tcp":
		if *coord == "" {
			return nil, errors.New("-transport tcp requires -coord host:port")
		}
		o.tcp = &mpi.TCPConfig{
			Rank:              *rank,
			Coord:             *coord,
			Listen:            *listen,
			DialTimeout:       *dialTimeout,
			HeartbeatInterval: *netHeartbeat,
			PeerTimeout:       *netPeerTimeout,
			RetransmitTimeout: *netRetransmit,
			MaxReconnect:      *netMaxReconnect,
		}
		if *netChaos != "" {
			plan, err := faulty.Parse(*netChaos)
			if err != nil {
				return nil, fmt.Errorf("chaos spec: %w", err)
			}
			o.tcp.Fault = faulty.New(plan)
		}
	default:
		return nil, fmt.Errorf("unknown transport %q (want inproc or tcp)", *transportName)
	}
	// Frame streaming: the flags are uniform across a fleet (the streaming
	// is collective), while the sink only ever runs on rank 0. Rank 0
	// creates (truncates) the frame log at start-up, like -step-log, so
	// it holds one run's frames and a bad path fails before the run.
	if *frameDir != "" || *frameLog != "" {
		var logFile *os.File
		if *frameLog != "" && (o.tcp == nil || o.tcp.Rank == 0) {
			f, err := os.Create(*frameLog)
			if err != nil {
				return nil, fmt.Errorf("frame log: %w", err)
			}
			logFile = f
		}
		cfg.StreamFrames = true
		cfg.FrameSink = frameSink(*frameDir, logFile)
	}
	return o, nil
}

// frameSink writes each streamed frame's raw bytes into dir and/or appends
// its JSONL record to logFile (either may be empty or nil).
func frameSink(dir string, logFile *os.File) cubism.FrameSink {
	return func(f cubism.Frame) error {
		if dir != "" {
			if err := os.WriteFile(filepath.Join(dir, f.Name), f.Data, 0o644); err != nil {
				return err
			}
		}
		if logFile != nil {
			rec, err := json.Marshal(f.Record())
			if err != nil {
				return err
			}
			if _, err := logFile.Write(append(rec, '\n')); err != nil {
				return err
			}
		}
		return nil
	}
}

// writeChecksums renders the conserved totals as hex float64 bit patterns,
// one quantity per line — a transport-independent fingerprint: a tcp
// multi-process run and an in-process run of the same case must produce
// byte-for-byte identical files (compare them with cmp).
func writeChecksums(path string, t cluster.Totals) error {
	var b strings.Builder
	for _, e := range []struct {
		name string
		v    float64
	}{
		{"mass", t.Mass},
		{"mom_x", t.MomX},
		{"mom_y", t.MomY},
		{"mom_z", t.MomZ},
		{"energy", t.Energy},
		{"abs_mom", t.AbsMomSum},
		{"gamma_min", t.GammaMin},
		{"gamma_max", t.GammaMax},
		{"pi_min", t.PiMin},
		{"pi_max", t.PiMax},
	} {
		fmt.Fprintf(&b, "%s %016x\n", e.name, math.Float64bits(e.v))
	}
	fmt.Fprintf(&b, "nonfinite %d\n", t.NonFinite)
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func main() {
	o, err := parse(os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	cfg := &o.cfg
	rank0 := o.tcp == nil || o.tcp.Rank == 0
	if o.banner != "" && !o.quiet {
		fmt.Fprintln(os.Stderr, o.banner)
	}

	// Telemetry sinks, each opt-in via its flag; the hot loop pays only a
	// pointer check for whatever stays disabled.
	var tel *cubism.Telemetry
	obsOn := cfg.Observe != nil
	if o.tracePath != "" || o.telemetryAddr != "" || o.stepLogPath != "" || obsOn {
		tel = &cubism.Telemetry{Metrics: cubism.NewMetricsRegistry()}
	}
	var traceFile *os.File
	if o.tracePath != "" {
		// Created up front so a bad path fails before the run, not after.
		f, err := os.Create(o.tracePath)
		if err != nil {
			log.Fatalf("trace: %v", err)
		}
		traceFile = f
		tel.Tracer = cubism.NewTracer()
	}
	if obsOn && tel.Tracer == nil {
		// The observatory's merged trace needs span data even when no
		// per-process -trace file was requested.
		tel.Tracer = cubism.NewTracer()
	}
	if o.telemetryAddr != "" {
		srv, err := cubism.ServeTelemetry(o.telemetryAddr, tel.Metrics)
		if err != nil {
			log.Fatalf("telemetry listener: %v", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: serving /metrics, /debug/vars, /debug/pprof on http://%s\n", srv.Addr())
	}
	if o.stepLogPath != "" {
		w := os.Stdout
		if o.stepLogPath != "-" {
			f, err := os.Create(o.stepLogPath)
			if err != nil {
				log.Fatalf("step log: %v", err)
			}
			w = f
		}
		tel.StepLog = cubism.NewStepLogger(w)
	}
	cfg.Telemetry = tel

	// flushTelemetry drains whatever the local sinks have buffered — the
	// per-process trace file and the step log. It runs once, from whichever
	// path ends the process first: the normal exit, a wire-failure
	// escalation, or a termination signal (mpcf-launch's cascade kill sends
	// SIGINT first for exactly this reason), so chaos runs leave usable
	// partial traces instead of truncated JSON. The step log is JSONL and
	// unbuffered per line, so closing it is enough.
	var flushOnce sync.Once
	flushTelemetry := func() {
		flushOnce.Do(func() {
			if traceFile != nil {
				if err := tel.Tracer.Write(traceFile); err != nil {
					fmt.Fprintf(os.Stderr, "trace flush: %v\n", err)
				}
				if err := traceFile.Close(); err != nil {
					fmt.Fprintf(os.Stderr, "trace flush: %v\n", err)
				}
			}
			if tel != nil && tel.StepLog != nil {
				tel.StepLog.Close()
			}
		})
	}
	// Signals request a graceful stop through the run controller: the step
	// loop ends at the next step boundary — collectively, so signaling any
	// one rank of a tcp fleet drains the whole world at the same step —
	// and a final checkpoint lands when configured. The historical
	// immediate flush-and-exit remains as two fallbacks: a wedged rank
	// that never reaches the boundary exits after -stop-grace, and a
	// second signal forces the exit right away. The grace fallback stands
	// down the moment the step loop acknowledges the stop (or the run
	// returns), so a drain that merely has long steps — or the
	// post-boundary checkpoint/observables writes — is never killed by it.
	ctl := cubism.NewController()
	cfg.Control = ctl
	runDone := make(chan struct{})
	var signalExit atomic.Int32
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigCh
		code := 130 // 128 + SIGINT
		if s == syscall.SIGTERM {
			code = 143
		}
		signalExit.Store(int32(code))
		ctl.Stop(s.String())
		go func() {
			select {
			case <-ctl.Acked():
				return // boundary reached; the main path owns the exit
			case <-runDone:
				return // run ended on its own before the boundary check
			case <-time.After(o.stopGrace):
			}
			flushTelemetry()
			os.Exit(code)
		}()
		<-sigCh
		flushTelemetry()
		os.Exit(code)
	}()

	if o.tcp != nil {
		t := *o.tcp
		d := cfg.Cluster.RankDims
		t.Size = d[0] * d[1] * d[2]
		t.Registry, t.Tracer = tel.GetMetrics(), tel.GetTracer()
		t.OnError = func(err error) {
			// The mailbox is already poisoned; flush the local sinks,
			// then abort with the same code and guidance as the
			// transport's default escalation path.
			fmt.Fprintf(os.Stderr,
				"mpcf-sim: unrecoverable wire failure: %v\n"+
					"restart the job from the last checkpoint (mpcf-sim -restore)\n", err)
			flushTelemetry()
			os.Exit(3)
		}
		w, err := mpi.ConnectTCP(t)
		if err != nil {
			flushTelemetry()
			log.Fatal(err)
		}
		cfg.World = w
	}

	var scenarioObs *cubism.ScenarioObserver
	if o.observablesPath != "" {
		scenarioObs = cubism.NewScenarioObserver(o.scn)
	}
	// Per-step output: the structured record goes to the step log (when
	// enabled); here only a human summary line remains, -quiet silences it.
	summary, runErr := cubism.Run(*cfg, func(s cubism.StepInfo) {
		if scenarioObs != nil {
			scenarioObs.OnStep(s)
		}
		if o.quiet {
			return
		}
		if s.HasDiag {
			fmt.Printf("step %6d  t=%.6e  dt=%.3e  wall=%6.1fms  max_p=%.4e  wall_p=%.4e  ke=%.4e  R=%.4e\n",
				s.Step, s.Time, s.DT, s.WallMS, s.Diag.MaxPressure, s.Diag.WallPressure,
				s.Diag.KineticEnergy, s.Diag.EquivRadius)
		}
		for q, rate := range s.DumpRates {
			fmt.Fprintf(os.Stderr, "step %d: %s compressed %.1f:1 (%.1f MB/s)\n",
				s.Step, q, rate, s.DumpMBps)
		}
	})
	close(runDone)
	if runErr == nil {
		runErr = o.sumsErr
	}
	if runErr != nil {
		flushTelemetry()
		log.Fatal(runErr)
	}
	flushTelemetry()
	if scenarioObs != nil && rank0 {
		// Written on the normal AND the graceful-stop path: a canceled job
		// still leaves its partial observables as a usable artifact.
		data, err := json.MarshalIndent(scenarioObs.Metrics(), "", "  ")
		if err == nil {
			err = os.WriteFile(o.observablesPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			log.Fatalf("observables: %v", err)
		}
	}
	if summary.Stopped && rank0 {
		fmt.Fprintf(os.Stderr, "stopped gracefully at step %d (reason: %s)\n",
			summary.Steps, summary.StopReason)
	}
	if code := signalExit.Load(); code != 0 {
		// The run drained at the stop boundary; exit with the signal's
		// conventional code so supervisors see the interruption.
		os.Exit(int(code))
	}
	if traceFile != nil {
		fmt.Fprintf(os.Stderr, "telemetry: wrote %d spans to %s (open in chrome://tracing or https://ui.perfetto.dev)\n",
			tel.Tracer.Len(), o.tracePath)
	}
	if rank0 {
		if o.obsReport == "-" && summary.Observatory != nil {
			if err := summary.Observatory.WriteText(os.Stderr); err != nil {
				log.Fatalf("imbalance report: %v", err)
			}
		}
		if cfg.Observe != nil && cfg.Observe.TracePath != "" {
			fmt.Fprintf(os.Stderr, "observatory: merged trace at %s\n", cfg.Observe.TracePath)
		}
		// The summary is gathered on rank 0; peer ranks hold a zero value.
		fmt.Fprintf(os.Stderr, "\n%d steps, t=%.3e, wall %v, %.2f Mpoints/s\n%s",
			summary.Steps, summary.SimTime, summary.WallTime.Round(1e6),
			summary.PointsPerSec/1e6, summary.Report)
	}
}
