package scenario

import (
	"math"
	"testing"

	"cubism/internal/cluster"
	"cubism/internal/physics"
	"cubism/internal/sim"
)

func TestRegistryNames(t *testing.T) {
	want := []string{"array", "cloud", "shockbubble"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	for _, s := range Registry() {
		if s.Description == "" {
			t.Errorf("scenario %s has no description", s.Name)
		}
	}
}

func TestBuildUnknown(t *testing.T) {
	if _, err := Build("nope", Params{}); err == nil {
		t.Fatal("Build(nope) succeeded, want error")
	}
}

// TestCloudGolden pins the default cloud case: the seed-42 geometry must
// never drift silently, because the verify tolerance bands and the
// benchmark's cloud references are measured against it.
func TestCloudGolden(t *testing.T) {
	c, err := Build("cloud", Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Bubbles) != 12 {
		t.Fatalf("default cloud has %d bubbles, want 12", len(c.Bubbles))
	}
	if !c.HasWall {
		t.Error("cloud case should mark the wall diagnostic")
	}
	if c.Beta < 1 || c.Beta > 10 {
		t.Errorf("default cloud beta = %v, want interacting regime [1, 10]", c.Beta)
	}
	if c.VoidFraction <= 0 || c.VoidFraction >= 0.5 {
		t.Errorf("void fraction = %v, want (0, 0.5)", c.VoidFraction)
	}
	if c.RayleighTau <= 0 {
		t.Errorf("RayleighTau = %v, want > 0", c.RayleighTau)
	}
	for _, b := range c.Bubbles {
		if b.R < 0.04 || b.R > 0.09 {
			t.Errorf("bubble radius %v outside clip [0.04, 0.09]", b.R)
		}
	}
	// The derived geometry is deterministic; 1e-6 only absorbs math-library
	// spread across platforms.
	for _, g := range []struct {
		name      string
		got, want float64
	}{
		{"beta", c.Beta, 2.2524403441782774},
		{"void fraction", c.VoidFraction, 0.08166789510478303},
		{"Rayleigh time", c.RayleighTau, 0.0005007721550583775},
	} {
		if math.Abs(g.got-g.want) > 1e-6*g.want {
			t.Errorf("default cloud %s = %.17g, want %.17g", g.name, g.got, g.want)
		}
	}

	// Identical Params must reproduce the identical cloud, bitwise.
	c2, err := Build("cloud", Params{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Bubbles {
		a, b := c.Bubbles[i], c2.Bubbles[i]
		if math.Float64bits(a.X) != math.Float64bits(b.X) ||
			math.Float64bits(a.Y) != math.Float64bits(b.Y) ||
			math.Float64bits(a.Z) != math.Float64bits(b.Z) ||
			math.Float64bits(a.R) != math.Float64bits(b.R) {
			t.Fatalf("bubble %d differs between identical builds: %+v vs %+v", i, a, b)
		}
	}

	// A different seed must give a different cloud.
	c3, err := Build("cloud", Params{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range c.Bubbles {
		if c.Bubbles[i] != c3.Bubbles[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seed 7 reproduced the seed-42 cloud")
	}
}

// TestCloudBetaTarget checks the β-targeting path: the realized interaction
// parameter of the sampled cloud must land near the request (the deviation
// comes only from the lognormal radius spread).
func TestCloudBetaTarget(t *testing.T) {
	for _, target := range []float64{0.5, 1.5, 3.0} {
		c, err := Build("cloud", Params{Beta: target})
		if err != nil {
			t.Fatalf("beta=%v: %v", target, err)
		}
		if c.Beta < target/2 || c.Beta > target*2 {
			t.Errorf("beta target %v realized %v, want within 2x", target, c.Beta)
		}
	}
	// Unreachable target: 12 bubbles cannot make β=1e6 in the unit box.
	if _, err := Build("cloud", Params{Beta: 1e6}); err == nil {
		t.Error("beta=1e6 build succeeded, want error")
	}
}

func TestShockBubbleBuild(t *testing.T) {
	c, err := Build("shockbubble", Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Bubbles) != 1 {
		t.Fatalf("shockbubble has %d bubbles, want 1", len(c.Bubbles))
	}
	init := c.Config.Cluster.Init
	// Left of the front: post-shock liquid at 10x ambient, moving right.
	s := init(0.1, 0.5, 0.5)
	if s.P != 10*physics.LiquidInit.P {
		t.Errorf("post-shock pressure = %v, want %v", s.P, 10*physics.LiquidInit.P)
	}
	if s.U <= 0 {
		t.Errorf("post-shock velocity = %v, want > 0", s.U)
	}
	// Bubble center: vapor state at rest.
	s = init(0.5, 0.5, 0.5)
	if s.Rho > 2 || s.U != 0 {
		t.Errorf("bubble center state = %+v, want vapor at rest", s)
	}
	// Far field right: undisturbed pressurized liquid.
	s = init(0.9, 0.5, 0.5)
	if s.P != physics.LiquidInit.P || s.U != 0 {
		t.Errorf("far field state = %+v, want ambient liquid", s)
	}
}

func TestArrayBuild(t *testing.T) {
	c, err := Build("array", Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Bubbles) != 8 {
		t.Fatalf("default array has %d bubbles, want 2^3 = 8", len(c.Bubbles))
	}
	r := c.Bubbles[0].R
	for _, b := range c.Bubbles {
		if b.R != r {
			t.Errorf("array radii differ: %v vs %v", b.R, r)
		}
	}
	if c.Beta <= 0 {
		t.Errorf("array beta = %v, want > 0", c.Beta)
	}
	if _, err := Build("array", Params{Bubbles: 99}); err == nil {
		t.Error("array with edge count 99 built, want error")
	}
}

// TestObserverMetrics feeds a synthetic diagnostics sequence through the
// pipeline and checks every reduced observable exactly.
func TestObserverMetrics(t *testing.T) {
	c := &Case{
		Name:     "synthetic",
		Bubbles:  nil,
		AmbientP: 100,
		HasWall:  true,
	}
	c.RayleighTau = 2.0
	obs := NewObserver(c)
	steps := []sim.StepInfo{
		{Step: 0, Time: 0.0, HasDiag: true, Diag: cluster.Diagnostics{
			MaxPressure: 100, WallPressure: 100, KineticEnergy: 0, EquivRadius: 0.5},
			HasTotals: true, Totals: cluster.Totals{Mass: 1000}},
		{Step: 1, Time: 0.5, HasDiag: true, Diag: cluster.Diagnostics{
			MaxPressure: 250, WallPressure: 180, KineticEnergy: 7, EquivRadius: 0.4}},
		{Step: 2, Time: 1.0, HasDiag: true, Diag: cluster.Diagnostics{
			MaxPressure: 150, WallPressure: 120, KineticEnergy: 3, EquivRadius: 0.45},
			HasTotals: true, Totals: cluster.Totals{Mass: 999, NonFinite: 2}},
	}
	for _, s := range steps {
		obs.OnStep(s)
	}
	m := obs.Metrics()
	want := map[string]float64{
		"peak_amp":      2.5,        // 250 / 100
		"wall_amp":      1.8,        // 180 / 100
		"ke_peak":       7,
		"min_ratio":     0.8,        // 0.4 / 0.5
		"final_ratio":   0.9,        // 0.45 / 0.5
		"collapse_frac": 0.5,        // t=1.0 / tau=2.0
		"mass_drift":    1.0 / 1000, // |999-1000|/1000
		"non_finite":    2,
	}
	for k, w := range want {
		got, ok := m[k]
		if !ok {
			t.Errorf("metric %s missing (have %v)", k, m)
			continue
		}
		if math.Abs(got-w) > 1e-12 {
			t.Errorf("metric %s = %v, want %v", k, got, w)
		}
	}
	if _, ok := m["r0_rel_err"]; ok {
		t.Error("r0_rel_err present without bubbles")
	}
	if len(obs.Series) != 3 {
		t.Errorf("series length %d, want 3", len(obs.Series))
	}
}

// TestRunDeterminism runs the tiniest cloud case twice in-process and
// requires bitwise-identical observables — the single-rank anchor the
// multi-rank transport tests (net_test.go) extend across wires.
func TestRunDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke skipped in -short")
	}
	tiny := Params{Blocks: [3]int{2, 2, 2}, BlockSize: 8, Steps: 10, Workers: 2}
	run := func() map[string]float64 {
		c, err := Build("cloud", tiny)
		if err != nil {
			t.Fatal(err)
		}
		m, _, _, err := c.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("metric sets differ: %v vs %v", a, b)
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok {
			t.Fatalf("metric %s missing from second run", k)
		}
		if math.Float64bits(va) != math.Float64bits(vb) {
			t.Errorf("metric %s differs bitwise: %v vs %v", k, va, vb)
		}
	}
}
