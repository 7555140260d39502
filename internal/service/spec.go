// Package service is the simulation-as-a-service front end: a JSON job
// API over the scenario registry, a multi-tenant admission-controlled
// queue feeding a warm worker pool, live result streaming to many
// concurrent subscribers, and per-job artifact directories (observables,
// checkpoints, step logs). Small jobs run in-process through sim.Run;
// larger decompositions fork local rank fleets through internal/launch —
// the same supervised-mpirun path the mpcf-launch CLI uses. See
// docs/service.md.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"cubism/internal/scenario"
	"cubism/internal/sim"
)

// SpecParams are the scenario parameter overrides a job may carry; zero
// values keep the scenario's laptop-scale defaults, mirroring
// scenario.Params field by field (plus the block layout knob).
type SpecParams struct {
	// Ranks is the cartesian rank decomposition. A product above the
	// service's in-process rank limit makes the job a fleet job.
	Ranks [3]int `json:"ranks,omitempty"`
	// Blocks is the per-rank block grid.
	Blocks [3]int `json:"blocks,omitempty"`
	// BlockSize is the block edge in cells, in [8, 64] (a power of two
	// when the job dumps).
	BlockSize int `json:"block_size,omitempty"`
	// Steps bounds the run.
	Steps int `json:"steps,omitempty"`
	// Workers per rank (0: NumCPU).
	Workers int `json:"workers,omitempty"`
	// Bubbles is the cloud bubble count (array: lattice edge k).
	Bubbles int `json:"bubbles,omitempty"`
	// Seed makes the sampled cloud reproducible.
	Seed int64 `json:"seed,omitempty"`
	// Beta targets the cloud interaction parameter β (picks the bubble
	// count; mutually exclusive with Bubbles).
	Beta float64 `json:"beta,omitempty"`
	// DiagEvery is the diagnostics cadence feeding step events and the
	// observables pipeline.
	DiagEvery int `json:"diag_every,omitempty"`
	// Layout is the block-to-rank layout: cartesian (default), hilbert,
	// morton or rowmajor.
	Layout string `json:"layout,omitempty"`
	// DumpEvery streams a compressed p and Γ snapshot every so many steps
	// (0: never): the frames land in the job's artifact directory and are
	// forwarded as "frame" events on the job event stream, each carrying
	// the complete dump-file bytes.
	DumpEvery int `json:"dump_every,omitempty"`
	// Encoder selects the dump coder: zlib (default), rle, sig or huff.
	Encoder string `json:"encoder,omitempty"`
}

// JobSpec is the submission body of POST /v1/jobs. The spec hashes to a
// deterministic job ID: resubmitting an identical spec addresses the same
// job (set Nonce to force a distinct re-run of identical parameters).
type JobSpec struct {
	// Scenario names the registry case: cloud, shockbubble or array.
	Scenario string `json:"scenario"`
	// Tenant is the submitting tenant; admission control caps each
	// tenant's queued and concurrently running jobs independently.
	Tenant string `json:"tenant"`
	// Priority orders the queue (higher first, FIFO within a priority;
	// range [-10, 10], default 0).
	Priority int `json:"priority,omitempty"`
	// Mode picks the execution engine: "" or "auto" (in-process up to the
	// service's rank limit, fleet beyond), "inproc" (all ranks as
	// goroutines in the service process), "fleet" (fork one mpcf-sim
	// process per rank over the tcp transport).
	Mode string `json:"mode,omitempty"`
	// Nonce distinguishes otherwise-identical specs (re-runs).
	Nonce string `json:"nonce,omitempty"`
	// Params overrides the scenario defaults.
	Params SpecParams `json:"params,omitempty"`
}

// Execution modes.
const (
	ModeAuto   = "auto"
	ModeInproc = "inproc"
	ModeFleet  = "fleet"
)

// MaxSpecBytes bounds a submission body; a job spec is a handful of
// scalars, anything larger is garbage.
const MaxSpecBytes = 1 << 16

// maxRanks bounds the decomposition a single job may request from the
// shared service — 16 local processes (or goroutine ranks) is already an
// aggressive ask for one tenant on one machine.
const maxRanks = 16

// maxCells bounds a job's total cell count (ranks × blocks × n³): 2²⁴ cells
// is 512 blocks of 32³. A cell carries 7 float32 quantities in each of the
// state, the RK register and the RHS buffer, 84 bytes, so the cap holds a
// job's solver state to 1.4 GB of the service host's memory.
const maxCells = 1 << 24

// ParseSpec decodes one JSON job spec, rejecting unknown fields and
// trailing garbage so typos fail loudly at submit time.
func ParseSpec(r io.Reader) (JobSpec, error) {
	dec := json.NewDecoder(io.LimitReader(r, MaxSpecBytes))
	dec.DisallowUnknownFields()
	var s JobSpec
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("service: parsing job spec: %w", err)
	}
	if dec.More() {
		return s, fmt.Errorf("service: trailing data after job spec")
	}
	return s, nil
}

// validName reports whether s is a safe identifier (tenant, nonce): short
// and limited to [A-Za-z0-9._-], so it can appear in paths and labels.
func validName(s string, max int) bool {
	if s == "" || len(s) > max {
		return false
	}
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// validTriple checks a decomposition triple: fully zero (scenario default)
// or every component in [1, lim].
func validTriple(t [3]int, lim int) bool {
	if t == ([3]int{}) {
		return true
	}
	for _, v := range t {
		if v < 1 || v > lim {
			return false
		}
	}
	return true
}

// RankProduct is the total rank count the spec requests (1 for the
// scenario default single rank).
func (s *JobSpec) RankProduct() int {
	if s.Params.Ranks == ([3]int{}) {
		return 1
	}
	return s.Params.Ranks[0] * s.Params.Ranks[1] * s.Params.Ranks[2]
}

// Validate checks every field against its domain, then dry-builds the
// scenario so parameter combinations the registry rejects (unknown name,
// Beta with Bubbles, infeasible β targets) fail at submit time with a 400
// instead of as a failed job.
func (s *JobSpec) Validate() error {
	if _, ok := scenario.Lookup(s.Scenario); !ok {
		return fmt.Errorf("unknown scenario %q (have %s)", s.Scenario, strings.Join(scenario.Names(), ", "))
	}
	if !validName(s.Tenant, 64) {
		return fmt.Errorf("tenant %q must be 1-64 chars of [A-Za-z0-9._-]", s.Tenant)
	}
	if s.Nonce != "" && !validName(s.Nonce, 64) {
		return fmt.Errorf("nonce %q must be 1-64 chars of [A-Za-z0-9._-]", s.Nonce)
	}
	if s.Priority < -10 || s.Priority > 10 {
		return fmt.Errorf("priority %d outside [-10, 10]", s.Priority)
	}
	switch s.Mode {
	case "", ModeAuto, ModeInproc, ModeFleet:
	default:
		return fmt.Errorf("mode %q (want auto, inproc or fleet)", s.Mode)
	}
	p := &s.Params
	if !validTriple(p.Ranks, maxRanks) {
		return fmt.Errorf("ranks %v must be all zero or each in [1, %d]", p.Ranks, maxRanks)
	}
	if s.RankProduct() > maxRanks {
		return fmt.Errorf("rank product %d exceeds the per-job cap %d", s.RankProduct(), maxRanks)
	}
	if !validTriple(p.Blocks, 64) {
		return fmt.Errorf("blocks %v must be all zero or each in [1, 64]", p.Blocks)
	}
	if p.BlockSize != 0 && (p.BlockSize < 8 || p.BlockSize > 64) {
		return fmt.Errorf("block_size %d outside [8, 64]", p.BlockSize)
	}
	if p.Steps < 0 || p.Steps > 100000 {
		return fmt.Errorf("steps %d outside [0, 100000]", p.Steps)
	}
	if p.Workers < 0 || p.Workers > 256 {
		return fmt.Errorf("workers %d outside [0, 256]", p.Workers)
	}
	if p.Bubbles < 0 || p.Bubbles > 200 {
		return fmt.Errorf("bubbles %d outside [0, 200]", p.Bubbles)
	}
	if p.Seed < 0 {
		return fmt.Errorf("seed %d must not be negative", p.Seed)
	}
	if p.Beta < 0 || p.Beta > 10 {
		return fmt.Errorf("beta %g outside [0, 10]", p.Beta)
	}
	if p.DiagEvery < 0 || p.DiagEvery > 100000 {
		return fmt.Errorf("diag_every %d outside [0, 100000]", p.DiagEvery)
	}
	if p.DumpEvery < 0 || p.DumpEvery > 100000 {
		return fmt.Errorf("dump_every %d outside [0, 100000]", p.DumpEvery)
	}
	// The dry build and sim.Check catch everything only the registry and
	// the simulator know (infeasible parameters, layout and encoder names,
	// block edges the wavelet cannot dump): the job's own config, checked
	// before any rank starts.
	c, err := s.Case()
	if err != nil {
		return err
	}
	cl := &c.Config.Cluster
	cells := int64(cl.BlockSize) * int64(cl.BlockSize) * int64(cl.BlockSize)
	for a := 0; a < 3; a++ {
		cells *= int64(cl.RankDims[a]) * int64(cl.BlockDims[a])
	}
	if cells > maxCells {
		return fmt.Errorf("job of %d cells exceeds the per-job cap of %d cells", cells, maxCells)
	}
	return sim.Check(c.Config)
}

// Case builds the job's scenario case: the registry's own config with the
// spec's layout and dump settings overlaid. Validate checks it, the
// in-process runner adds the job's artifact paths and sinks and runs it,
// and the fleet runner pins its parameters as mpcf-sim flags.
func (s *JobSpec) Case() (*scenario.Case, error) {
	c, err := scenario.Build(s.Scenario, s.ScenarioParams())
	if err != nil {
		return nil, err
	}
	c.Config.Cluster.Layout = s.Params.Layout
	c.Config.DumpEvery = s.Params.DumpEvery
	c.Config.Encoder = s.Params.Encoder
	c.Config.StreamFrames = s.Params.DumpEvery > 0
	return c, nil
}

// ScenarioParams maps the spec's overrides onto the registry's parameter
// struct.
func (s *JobSpec) ScenarioParams() scenario.Params {
	p := s.Params
	return scenario.Params{
		Ranks:     p.Ranks,
		Blocks:    p.Blocks,
		BlockSize: p.BlockSize,
		Steps:     p.Steps,
		Workers:   p.Workers,
		Bubbles:   p.Bubbles,
		Seed:      p.Seed,
		Beta:      p.Beta,
		DiagEvery: p.DiagEvery,
	}
}

// ID is the deterministic job identity: sha256 over the canonical JSON
// encoding of the spec (struct field order, zero fields omitted), truncated
// to 16 hex digits with a "j-" prefix. Identical specs — same scenario,
// tenant, parameters and nonce — always hash to the same ID, so a retried
// submission addresses the job it already created instead of enqueueing a
// duplicate.
func (s *JobSpec) ID() string {
	canon, err := json.Marshal(s)
	if err != nil {
		// A JobSpec of scalars and strings cannot fail to marshal.
		panic(fmt.Sprintf("service: canonicalizing spec: %v", err))
	}
	sum := sha256.Sum256(canon)
	return "j-" + hex.EncodeToString(sum[:])[:16]
}
