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
//	    Cluster: cubism.ClusterConfig{
//	        BlockDims: [3]int{4, 4, 4},
//	        BlockSize: 16,
//	        Extent:    1.0,
//	        Init:      cubism.SodInit,
//	    },
//	    Steps: 100,
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
	"io"

	"cubism/internal/cloud"
	"cubism/internal/cluster"
	"cubism/internal/compress"
	"cubism/internal/dump"
	"cubism/internal/grid"
	"cubism/internal/physics"
	"cubism/internal/scenario"
	"cubism/internal/sim"
	"cubism/internal/telemetry"
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

// Config describes a simulation campaign: the decomposition, geometry and
// initial condition (Cluster), the step bounds, dumps, checkpoints,
// diagnostics, telemetry and an optional pre-connected World. It is the one
// run description shared by the library, the scenario registry, mpcf-sim
// and the job service; a built scenario's Case.Config runs as is.
type Config = sim.Config

// ClusterConfig is the decomposition (ranks, blocks per rank, block edge,
// layout), the domain extent, boundary conditions, workers per rank, CFL
// number and initial condition of a run.
type ClusterConfig = cluster.Config

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

// Run executes the campaign on the production step and invokes onStep (may
// be nil) after each step with rank-0 visibility of the global state. It
// fills the production defaults — one rank when Cluster.RankDims is zero,
// the paper's CFL 0.3 when Cluster.CFL is zero — and always steps the
// pipelined model.
func Run(cfg Config, onStep func(StepInfo)) (Summary, error) {
	if cfg.Cluster.RankDims == ([3]int{}) {
		cfg.Cluster.RankDims = [3]int{1, 1, 1}
	}
	if cfg.Cluster.CFL == 0 {
		cfg.Cluster.CFL = 0.3
	}
	cfg.Cluster.Pipeline = true
	return sim.Run(cfg, onStep)
}

// DumpHeader is the self-describing metadata of a compressed dump file.
type DumpHeader = dump.Header

// Frame is one streamed compressed snapshot (full dump-file bytes).
type Frame = dump.Frame

// FrameSink consumes streamed frames on the sink rank.
type FrameSink = dump.FrameSink

// FrameRecord is the serialized streamed frame: a -frame-log line and the
// payload of a job's frame event (Frame.Record builds it).
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
