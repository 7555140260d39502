// Package scenario is the named-scenario engine for the paper's headline
// workload: cloud cavitation collapse (§7) and its building blocks. Each
// registered scenario turns a small set of parameters into a fully
// initialized sim.Config — seeded random bubble clouds with lognormal radii
// and a computed/targeted interaction parameter β (Rasthofer et al.'s
// 12'500-bubble study), shock-induced single-bubble collapse, and regular
// bubble arrays — plus the analytic references (Rayleigh collapse time,
// initial vapor volume) that the observables pipeline in observe.go
// compares the run against.
//
// The registry is wired through cmd/mpcf-sim (-scenario), cmd/mpcf-verify
// (tolerance-band checks per scenario, internal/verify), the service job API
// and the repository benchmark (the cloud32_node workload), in the shape of
// MFC's case registry: a user asks for a workload by name and every driver
// agrees on what that name means.
package scenario

import (
	"fmt"
	"sort"

	"cubism/internal/cloud"
	"cubism/internal/cluster"
	"cubism/internal/grid"
	"cubism/internal/physics"
	"cubism/internal/sim"
)

// Params overrides a scenario's laptop-scale defaults. Zero values keep the
// scenario's own choice, so Params{} always builds a valid case.
type Params struct {
	// Ranks is the cartesian rank decomposition (zero: scenario default,
	// usually a single rank).
	Ranks [3]int
	// Blocks is the per-rank block grid.
	Blocks [3]int
	// BlockSize is the block edge in cells.
	BlockSize int
	// Steps bounds the run.
	Steps int
	// Workers per rank (0: NumCPU).
	Workers int
	// Bubbles is the bubble count of the cloud case (and the per-edge count
	// k of the k³ array case).
	Bubbles int
	// Seed makes the sampled cloud reproducible (0: scenario default).
	Seed int64
	// Beta, when positive, picks the bubble count of the cloud case so the
	// monodisperse interaction parameter hits this target
	// (cloud.CountForBeta); mutually exclusive with Bubbles. The realized β
	// of the sampled cloud is reported in Case.Beta.
	Beta float64
	// DiagEvery is the diagnostics cadence feeding the observables pipeline
	// (0: scenario default).
	DiagEvery int
}

// Case is one fully initialized simulation setup plus the references its
// observables are judged against.
type Case struct {
	Name string
	// Config is ready for sim.Run; callers may still attach telemetry,
	// transports or extra callbacks before running.
	Config sim.Config

	// Bubbles is the initial bubble set (nil for non-bubble cases).
	Bubbles []cloud.Bubble
	// Beta is the realized cloud interaction parameter β = α₀(1−α₀)(R_C/R₀)²
	// of the sampled cloud (0 when a cloud region is not meaningful).
	Beta float64
	// VoidFraction is the realized gas fraction α₀ of the cloud region.
	VoidFraction float64
	// CloudRadius and MeanRadius are the geometric scales entering β.
	CloudRadius, MeanRadius float64

	// AmbientP is the far-field liquid pressure driving the collapse; for
	// the shock-driven case this is the post-shock pressure, the relevant
	// driver of the Rayleigh reference. BubbleP is the vapor pressure.
	AmbientP, BubbleP float64
	// LiquidRho is the liquid density entering the Rayleigh time.
	LiquidRho float64
	// RayleighTau is the classical collapse time τ = 0.91468 R₀ √(ρ/Δp) of
	// the mean bubble under the driving pressure difference.
	RayleighTau float64
	// HasWall marks the wall-pressure diagnostic as meaningful.
	HasWall bool
}

// Scenario is one registered named case.
type Scenario struct {
	Name        string
	Description string
	Build       func(p Params) (*Case, error)
}

// Registry returns the built-in scenarios in presentation order.
func Registry() []Scenario {
	return []Scenario{
		cloudScenario(),
		shockBubbleScenario(),
		arrayScenario(),
	}
}

// Lookup resolves a scenario by name.
func Lookup(name string) (Scenario, bool) {
	for _, s := range Registry() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// Names lists the registered scenario names, sorted.
func Names() []string {
	var names []string
	for _, s := range Registry() {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	return names
}

// Build resolves and builds a named scenario in one call.
func Build(name string, p Params) (*Case, error) {
	s, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, Names())
	}
	return s.Build(p)
}

// pick returns v unless it is zero.
func pick(v, def int) int {
	if v != 0 {
		return v
	}
	return def
}

func pick3(v, def [3]int) [3]int {
	if v != ([3]int{}) {
		return v
	}
	return def
}

func pick64(v, def int64) int64 {
	if v != 0 {
		return v
	}
	return def
}

// baseConfig assembles the decomposition shared by every scenario and
// returns the global cell spacing h the interface smoothing scales with.
func baseConfig(p Params, defBlocks [3]int, defN, defSteps, defDiag int) (sim.Config, float64) {
	ranks := pick3(p.Ranks, [3]int{1, 1, 1})
	blocks := pick3(p.Blocks, defBlocks)
	n := pick(p.BlockSize, defN)
	h := 1.0 / float64(ranks[0]*blocks[0]*n)
	cfg := sim.Config{
		Cluster: cluster.Config{
			RankDims:  ranks,
			BlockDims: blocks,
			BlockSize: n,
			Extent:    1.0,
			BC:        grid.DefaultBC(),
			CFL:       0.3,
			Workers:   p.Workers,
		},
		Steps:      pick(p.Steps, defSteps),
		DiagEvery:  pick(p.DiagEvery, defDiag),
		AuditEvery: 20,
	}
	return cfg, h
}

// rayleighTau fills the collapse-time reference of a case from its driving
// pressures and mean radius.
func (c *Case) rayleighTau() {
	if c.MeanRadius > 0 && c.AmbientP > c.BubbleP {
		c.RayleighTau = physics.RayleighCollapseTime(c.MeanRadius, c.LiquidRho, c.AmbientP-c.BubbleP)
	}
}

// --- cloud: seeded random bubble cloud near a wall -------------------------

func cloudScenario() Scenario {
	return Scenario{
		Name: "cloud",
		Description: "seeded lognormal bubble cloud above a reflecting wall, " +
			"interaction parameter β per Rasthofer et al.",
		Build: buildCloud,
	}
}

func buildCloud(p Params) (*Case, error) {
	cfg, h := baseConfig(p, [3]int{4, 4, 4}, 16, 150, 5)
	nb := pick(p.Bubbles, 12)
	spec := cloud.Spec{
		Center: [3]float64{0.5, 0.5, 0.55},
		Radius: 0.3,
		N:      nb,
		// The paper's 50-200 micron range scaled to the unit box.
		RMin: 0.04, RMax: 0.09,
		Seed: pick64(p.Seed, 42),
	}
	if p.Beta > 0 {
		// β is targeted through the bubble count at fixed cloud geometry —
		// the knob that moves β while the bubbles stay resolvable (the cloud
		// radius itself is pinned by the unit box, so RadiusForBeta can only
		// reach a narrow β range here). The sampled cloud's realized β is
		// reported back on the case.
		if p.Bubbles != 0 {
			return nil, fmt.Errorf("scenario cloud: set either Bubbles or Beta, not both (β determines the count)")
		}
		n, err := cloud.CountForBeta(0.06, spec.Radius, p.Beta)
		if err != nil {
			return nil, fmt.Errorf("scenario cloud: %w", err)
		}
		spec.N = n
	}
	bubbles, err := spec.Generate()
	if err != nil {
		return nil, fmt.Errorf("scenario cloud: %w", err)
	}
	field := cloud.NewField(bubbles, 1.5*h)
	cfg.Cluster.BC = grid.WallBC(grid.ZLo)
	cfg.Cluster.Init = field.At
	cfg.Wall = grid.ZLo
	cfg.HasWall = true
	c := &Case{
		Name:         "cloud",
		Config:       cfg,
		Bubbles:      bubbles,
		Beta:         cloud.InteractionParameter(bubbles, spec.Radius),
		VoidFraction: cloud.VoidFraction(bubbles, spec.Radius),
		CloudRadius:  spec.Radius,
		MeanRadius:   cloud.MeanRadius(bubbles),
		AmbientP:     physics.LiquidInit.P,
		BubbleP:      physics.VaporInit.P,
		LiquidRho:    physics.LiquidInit.Rho,
		HasWall:      true,
	}
	c.rayleighTau()
	return c, nil
}

// --- shockbubble: shock-induced single-bubble collapse ---------------------

func shockBubbleScenario() Scenario {
	return Scenario{
		Name: "shockbubble",
		Description: "planar 10x-ambient pressure wave impacting a single vapor " +
			"bubble (shock-induced collapse)",
		Build: buildShockBubble,
	}
}

func buildShockBubble(p Params) (*Case, error) {
	cfg, h := baseConfig(p, [3]int{4, 4, 4}, 16, 120, 5)
	const (
		bubbleR = 0.12
		shockX  = 0.20
	)
	shockP := 10 * physics.LiquidInit.P
	bubbles := []cloud.Bubble{{X: 0.5, Y: 0.5, Z: 0.5, R: bubbleR}}
	field := cloud.NewField(bubbles, 1.5*h)
	shocked := physics.ShockedLiquid(shockP)
	cfg.Cluster.Init = func(x, y, z float64) physics.Prim {
		s := field.At(x, y, z)
		if x < shockX {
			// Post-shock liquid moving right; the pre-shock side keeps the
			// two-phase field (the bubble sits well right of the front).
			return shocked
		}
		return s
	}
	c := &Case{
		Name:       "shockbubble",
		Config:     cfg,
		Bubbles:    bubbles,
		MeanRadius: bubbleR,
		// The shock pressure drives the collapse once the front arrives;
		// the Rayleigh reference uses it as the far-field pressure.
		AmbientP:  shockP,
		BubbleP:   physics.VaporInit.P,
		LiquidRho: physics.LiquidInit.Rho,
	}
	c.rayleighTau()
	return c, nil
}

// --- array: regular bubble lattice -----------------------------------------

func arrayScenario() Scenario {
	return Scenario{
		Name: "array",
		Description: "regular k³ lattice of equal vapor bubbles in pressurized " +
			"liquid (interaction without statistical geometry)",
		Build: buildArray,
	}
}

func buildArray(p Params) (*Case, error) {
	cfg, h := baseConfig(p, [3]int{4, 4, 4}, 16, 120, 5)
	k := pick(p.Bubbles, 2)
	if k < 1 || k > 8 {
		return nil, fmt.Errorf("scenario array: edge count %d outside [1, 8]", k)
	}
	// The lattice fills the central half of the box; radius at 75% of the
	// half-pitch keeps bubbles ≥3 cells at the 32³ verify resolution while
	// leaving a surface gap wider than the interface smoothing.
	r := 0.75 * 0.25 / float64(k)
	bubbles := cloud.Lattice(k, k, k, r, [3]float64{0.25, 0.25, 0.25}, [3]float64{0.75, 0.75, 0.75})
	field := cloud.NewField(bubbles, 1.5*h)
	cfg.Cluster.Init = field.At
	// The bounding sphere of the lattice region stands in for the cloud
	// radius of β; a regular array has one by construction.
	cloudR := 0.25 * 1.7320508075688772 // half-diagonal of the lattice box
	c := &Case{
		Name:         "array",
		Config:       cfg,
		Bubbles:      bubbles,
		Beta:         cloud.InteractionParameter(bubbles, cloudR),
		VoidFraction: cloud.VoidFraction(bubbles, cloudR),
		CloudRadius:  cloudR,
		MeanRadius:   cloud.MeanRadius(bubbles),
		AmbientP:     physics.LiquidInit.P,
		BubbleP:      physics.VaporInit.P,
		LiquidRho:    physics.LiquidInit.Rho,
	}
	c.rayleighTau()
	return c, nil
}
