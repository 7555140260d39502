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
	"flag"
	"fmt"
	"log"
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
)

func parseTriple(s string, def [3]int) [3]int {
	if s == "" {
		return def
	}
	parts := strings.Split(s, ",")
	if len(parts) == 1 {
		// A single value is cube shorthand: "4" == "4,4,4".
		parts = []string{parts[0], parts[0], parts[0]}
	}
	if len(parts) != 3 {
		log.Fatalf("expected one or three comma-separated values, got %q", s)
	}
	var out [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			log.Fatalf("bad value %q: %v", p, err)
		}
		out[i] = v
	}
	return out
}

func main() {
	caseName := flag.String("case", "cloud", "initial condition: cloud, sod, bubble")
	scenarioName := flag.String("scenario", "", "named scenario from the registry (cloud, shockbubble, array); replaces -case and hand-rolled init")
	beta := flag.Float64("beta", 0, "target cloud interaction parameter β for -scenario cloud (picks the bubble count; mutually exclusive with -bubbles)")
	ranks := flag.String("ranks", "", "rank grid, e.g. 2,2,2 (default 1,1,1)")
	blocks := flag.String("blocks", "", "blocks per rank, e.g. 4,4,4")
	n := flag.Int("n", 16, "block edge in cells (paper production: 32)")
	steps := flag.Int("steps", 100, "number of time steps")
	workers := flag.Int("workers", 0, "workers per rank (0: NumCPU)")
	layoutName := flag.String("layout", "", "block-to-rank layout: cartesian (default), hilbert, morton or rowmajor (see docs/sharding.md)")
	rebalanceEvery := flag.Int("rebalance-every", 0, "measure load imbalance every so many steps and migrate blocks on SFC layouts when it exceeds the threshold (0: never)")
	rebalanceThreshold := flag.Float64("rebalance-threshold", 0, "max/avg-1 imbalance that triggers a rebalance (0: 0.1)")
	rebalanceForceStep := flag.Int("rebalance-force-step", 0, "force one rebalance at exactly this step regardless of imbalance (migration fault drill; 0: never)")
	bubbles := flag.Int("bubbles", 12, "bubbles in the cloud case")
	seed := flag.Int64("seed", 42, "cloud random seed")
	wall := flag.Bool("wall", false, "reflecting wall at z=0 with wall-pressure diagnostics")
	dumpEvery := flag.Int("dump-every", 0, "compressed dump cadence in steps (0: never)")
	dumpDir := flag.String("dump-dir", ".", "dump output directory")
	encoder := flag.String("encoder", "zlib", "dump encoder: zlib, rle, sig or huff")
	frameDir := flag.String("frame-dir", "", "stream every dump as an assembled frame over the TagDump channel and write the raw frame bytes (bitwise identical to the dump file) into this directory on rank 0")
	frameLog := flag.String("frame-log", "", "stream every dump as an assembled frame and append one JSONL record per frame (base64 payload) to this path on rank 0 — the file mpcf-serve tails into job \"frame\" events")
	diagEvery := flag.Int("diag-every", 10, "diagnostics cadence in steps")
	ckptEvery := flag.Int("checkpoint-every", 0, "write a lossless checkpoint every so many steps (0: never)")
	ckptPath := flag.String("checkpoint", "checkpoint.ckp", "checkpoint file path")
	restorePath := flag.String("restore", "", "resume from this checkpoint file (same decomposition; the recovery path after a rank failure)")
	stopCkpt := flag.Bool("stop-checkpoint", false, "write a final checkpoint at the stop boundary when a signal ends the run early (implied by -checkpoint-every > 0)")
	stopGrace := flag.Duration("stop-grace", 1500*time.Millisecond, "how long a signaled run may take to reach the next step boundary before the immediate flush-and-exit fallback fires")
	observablesPath := flag.String("observables", "", "write the scenario collapse observables (flat JSON metric map) to this path on rank 0 after the run (requires -scenario)")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON timeline to this path (open in chrome://tracing or Perfetto)")
	telemetryAddr := flag.String("telemetry-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :9090; :0 picks a port; empty: disabled)")
	stepLogPath := flag.String("step-log", "", "write a JSONL structured step log to this path (- for stdout)")
	quiet := flag.Bool("quiet", false, "suppress per-step human output (final summary still printed)")
	transportName := flag.String("transport", "inproc", "rank transport: inproc (all ranks in this process) or tcp (this process is one rank)")
	rank := flag.Int("rank", 0, "this process's rank (tcp transport)")
	coord := flag.String("coord", "", "rendezvous coordinator host:port; rank 0 listens on it (tcp transport)")
	listen := flag.String("listen", "", "data listener bind address (tcp transport; empty picks a free port)")
	dialTimeout := flag.Duration("net-dial-timeout", 0, "rendezvous + mesh construction budget (0: 30s)")
	readTimeout := flag.Duration("net-read-timeout", 0, "per-frame read deadline (0: none)")
	writeTimeout := flag.Duration("net-write-timeout", 0, "per-frame write deadline (0: none)")
	netHeartbeat := flag.Duration("net-heartbeat", 0, "idle-link heartbeat cadence (0: 2s; negative disables)")
	netPeerTimeout := flag.Duration("net-peer-timeout", 0, "declare a silent peer failed after this long (0: 30s)")
	netRetransmit := flag.Duration("net-retransmit", 0, "force a reconnect when acks stall this long (0: 3s; negative disables)")
	netMaxReconnect := flag.Int("net-max-reconnect", 0, "reconnect attempts per failure episode (0: 8; negative disables reconnect)")
	netChaos := flag.String("net-chaos", "", "inject seeded wire faults, e.g. drop=0.01,reset=0.001,seed=7 (fault drill; physics must stay bitwise identical)")
	sumsPath := flag.String("sums", "", "write final conserved-field checksums (hex float64 bits) to this file on rank 0")
	obsTrace := flag.String("obs-trace", "", "write the cluster-wide merged clock-aligned Chrome trace to this path on rank 0 (enables the cross-rank observatory)")
	obsReport := flag.String("obs-report", "", "write the Table-4-shaped cluster imbalance report (text) to this path on rank 0 (- for stderr)")
	obsReportJSON := flag.String("obs-report-json", "", "write the cluster imbalance report (JSON) to this path on rank 0")
	obsSyncEvery := flag.Int("obs-sync-every", 0, "clock-offset re-sync cadence in steps on tcp worlds (0: 64)")
	obsWriteEvery := flag.Int("obs-write-every", 0, "observatory artifact rewrite cadence in steps, so kills leave usable partial output (0: 16)")
	flag.Parse()

	obsOn := *obsTrace != "" || *obsReport != "" || *obsReportJSON != ""
	obsReportPath := *obsReport
	if obsReportPath == "-" {
		obsReportPath = "" // rendered to stderr after the run instead
	}

	// Telemetry sinks, each opt-in via its flag; the hot loop pays only a
	// pointer check for whatever stays disabled.
	var tel *cubism.Telemetry
	telOn := *tracePath != "" || *telemetryAddr != "" || *stepLogPath != "" || obsOn
	if telOn {
		tel = &cubism.Telemetry{Metrics: cubism.NewMetricsRegistry()}
	}
	var traceFile *os.File
	if *tracePath != "" {
		// Created up front so a bad path fails before the run, not after.
		f, err := os.Create(*tracePath)
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
	if *telemetryAddr != "" {
		srv, err := cubism.ServeTelemetry(*telemetryAddr, tel.Metrics)
		if err != nil {
			log.Fatalf("telemetry listener: %v", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: serving /metrics, /debug/vars, /debug/pprof on http://%s\n", srv.Addr())
	}
	if *stepLogPath != "" {
		w := os.Stdout
		if *stepLogPath != "-" {
			f, err := os.Create(*stepLogPath)
			if err != nil {
				log.Fatalf("step log: %v", err)
			}
			w = f
		}
		tel.StepLog = cubism.NewStepLogger(w)
	}

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
			case <-time.After(*stopGrace):
			}
			flushTelemetry()
			os.Exit(code)
		}()
		<-sigCh
		flushTelemetry()
		os.Exit(code)
	}()

	cfg := cubism.Config{
		CheckpointEvery: *ckptEvery,
		CheckpointPath:  *ckptPath,
		RestorePath:     *restorePath,
		Control:         ctl,
		StopCheckpoint:  *stopCkpt,
		Ranks:           parseTriple(*ranks, [3]int{1, 1, 1}),
		Blocks:          parseTriple(*blocks, [3]int{4, 4, 4}),
		BlockSize:       *n,
		Extent:          1.0,
		Workers:         *workers,
		Layout:          *layoutName,
		Steps:           *steps,
		DumpEvery:       *dumpEvery,
		DumpDir:         *dumpDir,
		Encoder:         *encoder,
		DiagEvery:       *diagEvery,
		Telemetry:       tel,
		ChecksumPath:    *sumsPath,
	}
	cfg.RebalanceEvery = *rebalanceEvery
	cfg.RebalanceThreshold = *rebalanceThreshold
	cfg.ForceRebalanceStep = *rebalanceForceStep
	// Frame streaming: the flags are uniform across a fleet (the streaming
	// is collective), while the sink below only ever runs on rank 0.
	if *frameDir != "" || *frameLog != "" {
		cfg.StreamFrames = true
		var frameLogFile *os.File
		cfg.FrameSink = func(f cubism.Frame) error {
			if *frameDir != "" {
				if err := os.WriteFile(filepath.Join(*frameDir, f.Name), f.Data, 0o644); err != nil {
					return err
				}
			}
			if *frameLog != "" {
				if frameLogFile == nil {
					var err error
					frameLogFile, err = os.OpenFile(*frameLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
					if err != nil {
						return err
					}
				}
				rec, err := json.Marshal(cubism.FrameRecord{
					Name: f.Name, Step: f.Step, Quantity: f.Quantity,
					Time: f.Time, Bytes: len(f.Data), Data: f.Data,
				})
				if err != nil {
					return err
				}
				if _, err := frameLogFile.Write(append(rec, '\n')); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if obsOn {
		cfg.Observe = &cubism.ObserveConfig{
			TracePath:      *obsTrace,
			ReportPath:     obsReportPath,
			ReportJSONPath: *obsReportJSON,
			SyncEvery:      *obsSyncEvery,
			WriteEvery:     *obsWriteEvery,
		}
	}
	switch *transportName {
	case "inproc", "":
	case "tcp":
		if *coord == "" {
			log.Fatal("-transport tcp requires -coord host:port")
		}
		cfg.Net = &cubism.NetConfig{
			OnWireError: func(err error) {
				// The mailbox is already poisoned; flush the local sinks,
				// then abort with the same code and guidance as the
				// transport's default escalation path.
				fmt.Fprintf(os.Stderr,
					"mpcf-sim: unrecoverable wire failure: %v\n"+
						"restart the job from the last checkpoint (mpcf-sim -restore)\n", err)
				flushTelemetry()
				os.Exit(3)
			},
			Transport:         "tcp",
			Rank:              *rank,
			Coord:             *coord,
			Listen:            *listen,
			DialTimeout:       *dialTimeout,
			ReadTimeout:       *readTimeout,
			WriteTimeout:      *writeTimeout,
			HeartbeatInterval: *netHeartbeat,
			PeerTimeout:       *netPeerTimeout,
			RetransmitTimeout: *netRetransmit,
			MaxReconnect:      *netMaxReconnect,
			Chaos:             *netChaos,
		}
	default:
		log.Fatalf("unknown transport %q (want inproc or tcp)", *transportName)
	}

	var scenarioObs *cubism.ScenarioObserver
	if *observablesPath != "" && *scenarioName == "" {
		log.Fatal("-observables requires -scenario (the metric map is defined by the scenario's analytic references)")
	}
	if *scenarioName != "" {
		// Registry-backed setup: the scenario provides the initial condition,
		// boundary conditions and wall diagnostics; the CLI decomposition and
		// step flags override its laptop-scale defaults.
		setFlags := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
		sp := cubism.ScenarioParams{
			Ranks:     cfg.Ranks,
			Blocks:    cfg.Blocks,
			BlockSize: *n,
			Steps:     *steps,
			Workers:   *workers,
			Seed:      *seed,
			DiagEvery: *diagEvery,
			Beta:      *beta,
		}
		if setFlags["bubbles"] {
			// Only forward an explicit count: the array scenario reads it as
			// the lattice edge, and -beta computes the cloud count itself.
			sp.Bubbles = *bubbles
		}
		c, err := cubism.BuildScenario(*scenarioName, sp)
		if err != nil {
			log.Fatal(err)
		}
		sc := cubism.ScenarioConfig(c)
		cfg.Init = sc.Init
		cfg.Boundaries = sc.Boundaries
		cfg.Wall = sc.Wall
		cfg.HasWall = sc.HasWall
		if *observablesPath != "" {
			scenarioObs = cubism.NewScenarioObserver(c)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "scenario %s: %d bubbles", c.Name, len(c.Bubbles))
			if c.Beta > 0 {
				fmt.Fprintf(os.Stderr, ", beta=%.3f, alpha0=%.4f", c.Beta, c.VoidFraction)
			}
			if c.RayleighTau > 0 {
				fmt.Fprintf(os.Stderr, ", rayleigh tau=%.3e", c.RayleighTau)
			}
			fmt.Fprintln(os.Stderr)
		}
	} else {
		switch *caseName {
		case "sod":
			cfg.Init = cubism.SodInit
		case "bubble":
			cfg.Init = cubism.CloudField([]cubism.Bubble{{X: 0.5, Y: 0.5, Z: 0.5, R: 0.15}}, 0.02)
		case "cloud":
			cloudBubbles, err := cubism.GenerateCloud(cubism.CloudSpec{
				Center: [3]float64{0.5, 0.5, 0.55},
				Radius: 0.3,
				N:      *bubbles,
				RMin:   0.04, RMax: 0.09,
				Seed: *seed,
			})
			if err != nil {
				log.Fatal(err)
			}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "generated %d bubbles\n", len(cloudBubbles))
			}
			cfg.Init = cubism.CloudField(cloudBubbles, 0.015)
		default:
			log.Fatalf("unknown case %q", *caseName)
		}
	}
	if *wall {
		cfg.Boundaries = cubism.WallBC(cubism.ZLo)
		cfg.Wall = cubism.ZLo
		cfg.HasWall = true
	}

	// Per-step output: the structured record goes to the step log (when
	// enabled); here only a human summary line remains, -quiet silences it.
	summary, runErr := cubism.Run(cfg, func(s cubism.StepInfo) {
		if scenarioObs != nil {
			scenarioObs.OnStep(s)
		}
		if *quiet {
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
	if runErr != nil {
		flushTelemetry()
		log.Fatal(runErr)
	}
	flushTelemetry()
	if scenarioObs != nil && (cfg.Net == nil || cfg.Net.Rank == 0) {
		// Written on the normal AND the graceful-stop path: a canceled job
		// still leaves its partial observables as a usable artifact.
		data, err := json.MarshalIndent(scenarioObs.Metrics(), "", "  ")
		if err == nil {
			err = os.WriteFile(*observablesPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			log.Fatalf("observables: %v", err)
		}
	}
	if summary.Stopped && (cfg.Net == nil || cfg.Net.Rank == 0) {
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
			tel.Tracer.Len(), *tracePath)
	}
	if cfg.Net == nil || cfg.Net.Rank == 0 {
		if *obsReport == "-" && summary.Observatory != nil {
			if err := summary.Observatory.WriteText(os.Stderr); err != nil {
				log.Fatalf("imbalance report: %v", err)
			}
		}
		if *obsTrace != "" {
			fmt.Fprintf(os.Stderr, "observatory: merged trace at %s\n", *obsTrace)
		}
		// The summary is gathered on rank 0; peer ranks hold a zero value.
		fmt.Fprintf(os.Stderr, "\n%d steps, t=%.3e, wall %v, %.2f Mpoints/s\n%s",
			summary.Steps, summary.SimTime, summary.WallTime.Round(1e6),
			summary.PointsPerSec/1e6, summary.Report)
	}
}
