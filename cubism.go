// Package cubism is a Go reproduction of CUBISM-MPCF, the compressible
// two-phase flow solver of Rossinelli et al., "11 PFLOP/s Simulations of
// Cloud Cavitation Collapse" (SC '13).
//
// The library simulates inviscid compressible two-phase flow (cloud
// cavitation collapse, shock-bubble interaction, shock tubes) with a finite
// volume method: fifth-order WENO reconstruction of primitive quantities,
// HLLE numerical fluxes, and low-storage third-order TVD Runge-Kutta time
// stepping, on a block-structured uniform grid reindexed by a space-filling
// curve. The software follows the paper's three-layer design — cluster
// (domain decomposition over a simulated MPI runtime), node (dynamic
// one-block work scheduling over goroutines), core (the scalar kernels) —
// and includes the paper's wavelet-based compression scheme for data dumps.
// Every run takes one path: scalar kernels, the low-storage RK3 and the
// pipelined fused RHS+UP stage. The 4-lane "QPX"-model vector kernels are
// the instruction-accounting experiment of the paper's Tables 7–9
// (cmd/mpcf-bench), not a runtime option.
//
// Quick start:
//
//	cfg := cubism.Config{
//	    Blocks:    [3]int{4, 4, 4},
//	    BlockSize: 16,
//	    Extent:    1.0,
//	    Steps:     100,
//	    Init:      cubism.SodInit,
//	}
//	summary, err := cubism.Run(cfg, func(s cubism.StepInfo) {
//	    fmt.Printf("step %d t=%.3g dt=%.3g\n", s.Step, s.Time, s.DT)
//	})
//
// See examples/ for cloud collapse, shock-bubble interaction and
// compression walkthroughs, and cmd/mpcf-bench for the harness that
// regenerates every table and figure of the paper's evaluation.
package cubism

import (
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"cubism/internal/cloud"
	"cubism/internal/cluster"
	"cubism/internal/compress"
	"cubism/internal/dump"
	"cubism/internal/grid"
	"cubism/internal/mpi"
	"cubism/internal/physics"
	"cubism/internal/scenario"
	"cubism/internal/sim"
	"cubism/internal/telemetry"
	"cubism/internal/transport"
	"cubism/internal/transport/faulty"
)

// State is a primitive flow state: density, velocity, pressure and the two
// material functions Γ = 1/(γ-1) and Π = γ p_c/(γ-1).
type State = physics.Prim

// Material describes one pure phase (specific heat ratio γ and correction
// pressure p_c of the stiffened equation of state).
type Material = physics.Material

// The paper's two phases (§7): water vapor and pressurized liquid water.
var (
	Vapor  = physics.Vapor
	Liquid = physics.Liquid
)

// Mix blends the material functions of two phases by vapor volume fraction.
func Mix(liquid, vapor Material, alpha float64) (gamma, pi float64) {
	return physics.Mix(liquid, vapor, alpha)
}

// Face identifies a domain face for boundary conditions and diagnostics.
type Face = grid.Face

// Domain faces.
const (
	XLo = grid.XLo
	XHi = grid.XHi
	YLo = grid.YLo
	YHi = grid.YHi
	ZLo = grid.ZLo
	ZHi = grid.ZHi
)

// BC assigns a boundary condition to each face.
type BC = grid.BC

// Boundary condition kinds.
const (
	Absorbing  = grid.Absorbing
	Reflecting = grid.Reflecting
	Periodic   = grid.Periodic
)

// Convenience boundary-condition constructors.
var (
	DefaultBC  = grid.DefaultBC
	WallBC     = grid.WallBC
	PeriodicBC = grid.PeriodicBC
)

// Bubble is one spherical vapor cavity of a cloud.
type Bubble = cloud.Bubble

// CloudSpec describes a bubble cloud (lognormal radii, non-overlapping
// rejection packing).
type CloudSpec = cloud.Spec

// GenerateCloud samples a reproducible bubble cloud.
func GenerateCloud(spec CloudSpec) ([]Bubble, error) { return spec.Generate() }

// CloudField builds the two-phase initial condition of a bubble cloud with
// the paper's material states; eps is the interface smoothing half-width.
func CloudField(bubbles []Bubble, eps float64) func(x, y, z float64) State {
	f := cloud.NewField(bubbles, eps)
	return f.At
}

// SodInit is the classic Sod shock-tube initial condition along x.
var SodInit = sim.SodInit

// ScenarioParams overrides a named scenario's laptop-scale defaults; the
// zero value keeps every default.
type ScenarioParams = scenario.Params

// ScenarioCase is a fully initialized simulation setup from the scenario
// registry, with the analytic references (interaction parameter β, Rayleigh
// collapse time) its observables are judged against.
type ScenarioCase = scenario.Case

// ScenarioObserver reduces a scenario run to the paper's Figure-5 collapse
// observables (peak/wall pressure amplification, kinetic energy, equivalent
// cloud radius, collapse time vs the Rayleigh prediction).
type ScenarioObserver = scenario.Observer

// ScenarioNames lists the registered scenario names (sorted): seeded
// lognormal bubble clouds ("cloud"), shock-induced single-bubble collapse
// ("shockbubble") and regular bubble arrays ("array").
func ScenarioNames() []string { return scenario.Names() }

// BuildScenario builds a named scenario from the registry.
func BuildScenario(name string, p ScenarioParams) (*ScenarioCase, error) {
	return scenario.Build(name, p)
}

// NewScenarioObserver attaches the observables pipeline to a built case;
// feed it as (or from) the Run step callback and call Metrics() afterwards.
func NewScenarioObserver(c *ScenarioCase) *ScenarioObserver {
	return scenario.NewObserver(c)
}

// ScenarioConfig converts a built case into a Config ready for Run, carrying
// the decomposition, initial condition, boundary conditions and wall
// diagnostics of the case. Dumps, telemetry and transports can be layered on
// the returned Config before running.
func ScenarioConfig(c *ScenarioCase) Config {
	cc := c.Config.Cluster
	return Config{
		Ranks:      cc.RankDims,
		Blocks:     cc.BlockDims,
		BlockSize:  cc.BlockSize,
		Extent:     cc.Extent,
		Boundaries: cc.BC,
		Workers:    cc.Workers,
		CFL:        cc.CFL,
		Init:       cc.Init,
		Steps:      c.Config.Steps,
		DiagEvery:  c.Config.DiagEvery,
		Wall:       c.Config.Wall,
		HasWall:    c.Config.HasWall,
	}
}

// Config describes a simulation campaign.
type Config struct {
	// Ranks is the cartesian decomposition into (simulated) MPI ranks;
	// zero means a single rank.
	Ranks [3]int
	// Blocks is the number of blocks per rank per dimension.
	Blocks [3]int
	// BlockSize is the block edge in cells (the paper's production size is
	// 32). It must be at least twice the stencil width, i.e. 6.
	BlockSize int
	// Extent is the physical domain size along x.
	Extent float64
	// Boundaries are the physical boundary conditions (default absorbing).
	Boundaries BC
	// Workers is the number of worker goroutines per rank (0: NumCPU).
	Workers int
	// CFL is the time-step safety factor (0 defaults to the paper's 0.3).
	CFL float64
	// Init provides the initial condition in global coordinates.
	Init func(x, y, z float64) State

	// Steps and TEnd bound the run (either may be zero).
	Steps int
	TEnd  float64

	// DumpEvery writes compressed p and Γ snapshots every so many steps
	// into DumpDir (0: never).
	DumpEvery int
	DumpDir   string
	// EpsP, EpsG are decimation thresholds (0: the paper's 1e-2 / 1e-3).
	EpsP, EpsG float64
	// Encoder is the lossless dump coder: "zlib" (default), "rle", "sig"
	// or "huff".
	Encoder string
	// StreamFrames additionally ships every dump as an assembled frame
	// over the dedicated TagDump transport channel to the rank-0 sink,
	// bitwise identical to the dump file. Must be uniform across the
	// fleet (the streaming is collective).
	StreamFrames bool
	// FrameSink receives assembled frames on rank 0.
	FrameSink FrameSink

	// DiagEvery controls the diagnostics cadence (0: every step).
	DiagEvery int
	// CheckpointEvery writes a lossless full-state checkpoint every so many
	// steps (0: never) into CheckpointPath.
	CheckpointEvery int
	CheckpointPath  string
	// RestorePath resumes the run from a checkpoint written by a previous
	// run with the same decomposition: grid state, step counter and
	// simulated time are restored before the first step. This is the
	// recovery path after a rank failure (mpcf-sim -restore; see
	// docs/networking.md).
	RestorePath string
	// Wall marks a face as the solid wall for wall-pressure diagnostics.
	Wall    Face
	HasWall bool

	// Control (optional) attaches a cancellation controller: Stop() ends
	// the run gracefully at the next step boundary, collectively across
	// all ranks (a Stop on any one rank of a distributed world drains the
	// whole fleet at the same step). The run returns normally with
	// Summary.Stopped set.
	Control *Controller
	// StopCheckpoint writes a final checkpoint to CheckpointPath when a
	// controller stop ends the run, even with periodic checkpointing off —
	// so a canceled or drained job can resume from exactly the stop
	// boundary via RestorePath.
	StopCheckpoint bool

	// Telemetry (optional) attaches the observability sinks — span tracer,
	// metrics registry and structured step log (see docs/observability.md).
	// Nil disables all instrumentation beyond a pointer check per phase.
	Telemetry *Telemetry

	// Observe (optional) enables the cross-rank performance observatory:
	// every rank streams per-phase step timings (plus spans and counter
	// snapshots on tcp worlds) to rank 0, which writes one merged
	// clock-aligned Chrome trace and a Table-4-shaped cluster imbalance
	// report (see docs/observability.md).
	Observe *ObserveConfig

	// Layout selects how blocks are assigned to ranks: "cartesian" (default;
	// each rank owns the Blocks box implied by its grid coordinates) or a
	// space-filling curve — "hilbert", "morton", "rowmajor" — partitioned
	// into contiguous chunks (see docs/sharding.md). All layouts are bitwise
	// identical in physics.
	Layout string
	// RebalanceEvery measures load imbalance every so many steps (0: never)
	// and, on SFC layouts, migrates blocks when the max/avg-1 imbalance
	// exceeds RebalanceThreshold (0: 0.1). ForceRebalanceStep forces one
	// rebalance at exactly that step regardless of the measured imbalance —
	// the migration fault-drill hook.
	RebalanceEvery     int
	RebalanceThreshold float64
	ForceRebalanceStep int

	// Net (optional) selects the wire transport. Nil or Transport "inproc"
	// keeps the default single-process world (all ranks as goroutines);
	// Transport "tcp" makes this process one rank of a multi-process world
	// (see docs/networking.md and cmd/mpcf-launch).
	Net *NetConfig

	// ChecksumPath (optional) writes the final conserved-field totals as
	// hex-encoded float64 bit patterns to this file on rank 0 after the
	// last step — a transport-independent fingerprint: a TCP multi-process
	// run and an in-process run of the same scenario must produce byte-for-
	// byte identical files.
	ChecksumPath string
}

// NetConfig configures the wire transport of a multi-process run.
type NetConfig struct {
	// Transport is "inproc" (default) or "tcp".
	Transport string
	// Rank is this process's rank in [0, product(Ranks)).
	Rank int
	// Coord is the rendezvous coordinator address; rank 0 listens on it.
	Coord string
	// Listen is the data listener bind address ("" picks any free port).
	Listen string
	// DialTimeout bounds rendezvous and mesh construction (0: 30s).
	// ReadTimeout/WriteTimeout are per-frame I/O deadlines (0: none).
	// CloseTimeout bounds the graceful shutdown drain (0: 10s).
	DialTimeout  time.Duration
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	CloseTimeout time.Duration
	// SendQueue is the per-peer outgoing frame queue depth (0: 256).
	SendQueue int

	// Robustness knobs (zero: transport defaults; docs/networking.md):
	// heartbeat cadence on idle links, the failure-detection horizon for an
	// unreachable peer, the ack-stall bound that forces a reconnect, and the
	// per-episode reconnect attempt cap.
	HeartbeatInterval time.Duration
	PeerTimeout       time.Duration
	RetransmitTimeout time.Duration
	MaxReconnect      int

	// Chaos, when non-empty, injects seeded wire faults on outgoing data
	// frames for fault-drill runs — a spec like
	// "drop=0.01,reset=0.001,seed=7" (internal/transport/faulty.Parse).
	// The reliability layer must mask every injected fault: physics results
	// stay bitwise identical to a clean run.
	Chaos string

	// OnWireError (optional) runs when the transport escalates an
	// unrecoverable peer failure, before the process aborts. Drivers use it
	// to flush telemetry buffers so chaos runs leave usable partial traces
	// (the default without it is an immediate exit).
	OnWireError func(error)
}

// Telemetry bundles the observability sinks threaded through the solver
// stack: a Chrome trace_event span tracer, a Prometheus/expvar metrics
// registry, and a JSONL step logger.
type Telemetry = telemetry.Set

// ObserveConfig enables the cross-rank performance observatory (merged
// clock-aligned traces and Table-4-shaped imbalance reports on rank 0).
type ObserveConfig = sim.ObserveConfig

// ImbalanceReport is the observatory's cluster imbalance report, delivered
// in Summary.Observatory.
type ImbalanceReport = telemetry.ImbalanceReport

// NewTracer returns an enabled solver-phase span tracer; export it with
// WriteFile after the run and open the JSON in chrome://tracing or Perfetto.
func NewTracer() *telemetry.Tracer { return telemetry.NewTracer() }

// NewMetricsRegistry returns an empty metrics registry, servable via
// ServeTelemetry and renderable in the Prometheus text format.
func NewMetricsRegistry() *telemetry.Registry { return telemetry.NewRegistry() }

// NewStepLogger returns a JSONL step logger writing to w.
func NewStepLogger(w io.Writer) *telemetry.StepLogger { return telemetry.NewStepLogger(w) }

// ServeTelemetry starts the opt-in HTTP listener with /metrics,
// /debug/vars and /debug/pprof (addr ":0" picks a free port).
func ServeTelemetry(addr string, reg *telemetry.Registry) (*telemetry.Server, error) {
	return telemetry.Serve(addr, reg)
}

// Controller is the graceful-cancellation hook of a run (see
// Config.Control); the zero value is ready, NewController is convenience.
type Controller = sim.Controller

// NewController returns a ready cancellation controller.
func NewController() *Controller { return sim.NewController() }

// StepInfo is delivered after every step.
type StepInfo = sim.StepInfo

// Diagnostics are the global flow statistics of the paper's Figure 5.
type Diagnostics = cluster.Diagnostics

// Summary reports campaign-level results.
type Summary = sim.Summary

// Run executes the campaign and invokes onStep (may be nil) after each
// step with rank-0 visibility of the global state.
func Run(cfg Config, onStep func(StepInfo)) (Summary, error) {
	ranks := cfg.Ranks
	if ranks == ([3]int{}) {
		ranks = [3]int{1, 1, 1}
	}
	cfl := cfg.CFL
	if cfl == 0 {
		cfl = 0.3
	}
	var world *mpi.World
	if n := cfg.Net; n != nil && n.Transport != "" && n.Transport != "inproc" {
		if n.Transport != "tcp" {
			return Summary{}, fmt.Errorf("cubism: unknown transport %q (want inproc or tcp)", n.Transport)
		}
		var fault transport.FaultInjector
		if n.Chaos != "" {
			plan, err := faulty.Parse(n.Chaos)
			if err != nil {
				return Summary{}, fmt.Errorf("cubism: chaos spec: %w", err)
			}
			fault = faulty.New(plan)
		}
		w, err := mpi.ConnectTCP(mpi.TCPConfig{
			OnError:           n.OnWireError,
			Rank:              n.Rank,
			Size:              ranks[0] * ranks[1] * ranks[2],
			Coord:             n.Coord,
			Listen:            n.Listen,
			DialTimeout:       n.DialTimeout,
			ReadTimeout:       n.ReadTimeout,
			WriteTimeout:      n.WriteTimeout,
			CloseTimeout:      n.CloseTimeout,
			SendQueue:         n.SendQueue,
			HeartbeatInterval: n.HeartbeatInterval,
			PeerTimeout:       n.PeerTimeout,
			RetransmitTimeout: n.RetransmitTimeout,
			MaxReconnect:      n.MaxReconnect,
			Fault:             fault,
			Registry:          cfg.Telemetry.GetMetrics(),
			Tracer:            cfg.Telemetry.GetTracer(),
		})
		if err != nil {
			return Summary{}, err
		}
		world = w
	}
	var sumErr error
	var onFinish func(r *cluster.Rank)
	if cfg.ChecksumPath != "" {
		path := cfg.ChecksumPath
		onFinish = func(r *cluster.Rank) {
			tot := r.ConservedTotals() // collective: every rank participates
			if r.Comm.Rank() == 0 {
				if err := writeChecksums(path, tot); err != nil {
					sumErr = err
				}
			}
		}
	}
	summary, err := sim.Run(sim.Config{
		Cluster: cluster.Config{
			RankDims:  ranks,
			BlockDims: cfg.Blocks,
			BlockSize: cfg.BlockSize,
			Extent:    cfg.Extent,
			BC:        cfg.Boundaries,
			Workers:   cfg.Workers,
			CFL:       cfl,
			Pipeline:  true,
			Init:      cfg.Init,
			Layout:    cfg.Layout,
		},
		RebalanceEvery:     cfg.RebalanceEvery,
		RebalanceThreshold: cfg.RebalanceThreshold,
		ForceRebalanceStep: cfg.ForceRebalanceStep,
		Steps:              cfg.Steps,
		TEnd:               cfg.TEnd,
		DumpEvery:          cfg.DumpEvery,
		DumpDir:            cfg.DumpDir,
		EpsP:               cfg.EpsP,
		EpsG:               cfg.EpsG,
		Encoder:            cfg.Encoder,
		StreamFrames:       cfg.StreamFrames,
		FrameSink:          cfg.FrameSink,
		DiagEvery:          cfg.DiagEvery,
		CheckpointEvery:    cfg.CheckpointEvery,
		CheckpointPath:     cfg.CheckpointPath,
		RestorePath:        cfg.RestorePath,
		Wall:               cfg.Wall,
		HasWall:            cfg.HasWall,
		Control:            cfg.Control,
		StopCheckpoint:     cfg.StopCheckpoint,
		Telemetry:          cfg.Telemetry,
		Observe:            cfg.Observe,
		World:              world,
		OnFinish:           onFinish,
	}, onStep)
	if err == nil {
		err = sumErr
	}
	return summary, err
}

// writeChecksums renders the conserved totals as hex float64 bit patterns,
// one quantity per line, so runs can be compared bitwise with cmp/diff.
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

// DumpHeader is the self-describing metadata of a compressed dump file.
type DumpHeader = dump.Header

// Frame is one streamed compressed snapshot (full dump-file bytes).
type Frame = dump.Frame

// FrameSink consumes streamed frames on the sink rank.
type FrameSink = dump.FrameSink

// FrameRecord is the JSONL shape of a streamed frame in a -frame-log file.
type FrameRecord = dump.FrameRecord

// DecodeDumpFrame parses a complete dump-file image (a streamed frame)
// exactly like ReadDump parses a file on disk.
func DecodeDumpFrame(data []byte) (DumpHeader, []*compress.Compressed, error) {
	return dump.Decode(data)
}

// ReadDump opens a compressed dump file and reconstructs the per-block
// scalar fields of every rank (rank-major, blocks in space-filling-curve
// order, each block N³ values x-fastest).
func ReadDump(path string) (DumpHeader, [][][]float32, error) {
	hdr, payloads, err := dump.Read(path)
	if err != nil {
		return hdr, nil, err
	}
	fields := make([][][]float32, len(payloads))
	for r, c := range payloads {
		fields[r], err = c.Decompress()
		if err != nil {
			return hdr, nil, err
		}
	}
	return hdr, fields, nil
}

// CompressionStats summarizes one compression pass.
type CompressionStats = compress.Stats
