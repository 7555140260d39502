package verify

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cubism/internal/cluster"
	"cubism/internal/grid"
	"cubism/internal/sim"
	"cubism/internal/telemetry"
)

// shortReport runs the short-mode suite once and shares the report across
// the acceptance tests below (each scenario costs seconds, not millis).
var (
	shortOnce sync.Once
	shortRep  *Report
	shortErr  error
)

func getShortReport(t *testing.T) *Report {
	t.Helper()
	shortOnce.Do(func() {
		bands, err := DefaultBands()
		if err != nil {
			shortErr = err
			return
		}
		shortRep, shortErr = RunAll(Short, Options{}, bands)
	})
	if shortErr != nil {
		t.Fatal(shortErr)
	}
	return shortRep
}

func metric(t *testing.T, rep *Report, scenario, name string) float64 {
	t.Helper()
	res, ok := rep.Scenarios[scenario]
	if !ok {
		t.Fatalf("scenario %q missing from report", scenario)
	}
	v, ok := res.Metrics[name]
	if !ok {
		t.Fatalf("metric %s.%s missing; have %v", scenario, name, res.Metrics)
	}
	return v
}

func TestSodConvergenceOrder(t *testing.T) {
	rep := getShortReport(t)
	if o := metric(t, rep, "sod", "order_l1"); !(o >= 0.8) {
		t.Errorf("Sod L1 density convergence order = %.3f, want >= 0.8", o)
	}
	if o := metric(t, rep, "sod", "order_fit_l1"); !(o >= 0.8) {
		t.Errorf("Sod fitted L1 convergence order = %.3f, want >= 0.8", o)
	}
	ladder := rep.Scenarios["sod"].Ladder
	if len(ladder) < 2 {
		t.Fatalf("sod ladder has %d points, want >= 2", len(ladder))
	}
	for i := 1; i < len(ladder); i++ {
		if ladder[i].L1 >= ladder[i-1].L1 {
			t.Errorf("L1 not decreasing along ladder: %.3e (n=%d) -> %.3e (n=%d)",
				ladder[i-1].L1, ladder[i-1].Cells, ladder[i].L1, ladder[i].Cells)
		}
	}
}

func TestInterfaceAdvectionPreservation(t *testing.T) {
	rep := getShortReport(t)
	if d := metric(t, rep, "iface", "u_drift"); !(d <= 1e-6) {
		t.Errorf("interface advection u drift = %.3e, want <= 1e-6", d)
	}
	if d := metric(t, rep, "iface", "p_drift"); !(d <= 1e-6) {
		t.Errorf("interface advection p drift = %.3e, want <= 1e-6", d)
	}
	if d := metric(t, rep, "iface", "mass_drift"); !(d <= 1e-12) {
		t.Errorf("interface advection mass drift = %.3e, want <= 1e-12 over 50 steps", d)
	}
	if n := metric(t, rep, "iface", "audited_steps"); n < 50 {
		t.Errorf("conservation audit covered %v steps, want >= 50", n)
	}
}

func TestRayleighCollapseAgainstODE(t *testing.T) {
	rep := getShortReport(t)
	if d := metric(t, rep, "rayleigh", "max_rel_dev"); !(d <= 0.15) {
		t.Errorf("Rayleigh radius deviation from RP ODE = %.3f, want <= 0.15", d)
	}
	if f := metric(t, rep, "rayleigh", "final_ratio"); !(f < 1) {
		t.Errorf("bubble did not collapse: final R/R0 = %.3f", f)
	}
	series := rep.Scenarios["rayleigh"].Series
	if len(series) < 3 {
		t.Fatalf("rayleigh series has %d samples", len(series))
	}
	if last := series[len(series)-1]; last.RSim >= series[0].RSim {
		t.Errorf("radius did not shrink: %.4f -> %.4f", series[0].RSim, last.RSim)
	}
}

func TestShortBandsPass(t *testing.T) {
	rep := getShortReport(t)
	if len(rep.Checks) == 0 {
		t.Fatal("no tolerance checks ran")
	}
	for _, c := range rep.Checks {
		if !c.Pass {
			t.Errorf("band %s: value %.4e violates %s %.4e", c.Name, c.Value, c.Op, c.Bound)
		}
	}
	if !rep.Pass {
		t.Error("report Pass = false")
	}
}

// TestRunCasePipelines: the ladder's runs step on the production pipelined
// model even when a scenario's config leaves Pipeline unset.
func TestRunCasePipelines(t *testing.T) {
	tel := &telemetry.Set{Tracer: telemetry.NewTracer()}
	cfg := sim.Config{
		Cluster: cluster.Config{
			RankDims: [3]int{1, 1, 1}, BlockDims: [3]int{1, 1, 1}, BlockSize: 8,
			Extent: 1, BC: grid.PeriodicBC(), CFL: 0.3, Init: sim.SodInit,
		},
		Steps:     1,
		Telemetry: tel,
	}
	if _, err := runCase(cfg, Options{Workers: 1}, nil); err != nil {
		t.Fatal(err)
	}
	spans := map[string]int{}
	for _, ev := range tel.Tracer.Export().TraceEvents {
		spans[ev.Name]++
	}
	if spans["RHSUP"] != 3 || spans["UP"] != 0 {
		t.Errorf("%d RHSUP and %d UP spans for one step, want 3 and 0", spans["RHSUP"], spans["UP"])
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep := getShortReport(t)
	path := filepath.Join(t.TempDir(), "VERIFY.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("VERIFY.json is not valid JSON: %v", err)
	}
	if got.Mode != string(Short) || !got.Pass {
		t.Errorf("round-trip mode=%q pass=%v", got.Mode, got.Pass)
	}
	if len(got.Scenarios) != len(rep.Scenarios) {
		t.Errorf("round-trip lost scenarios: %d != %d", len(got.Scenarios), len(rep.Scenarios))
	}
	if rep.Table() == "" {
		t.Error("empty table rendering")
	}
}

// --- fast unit tests (no simulation) --------------------------------------

func TestObservedOrders(t *testing.T) {
	// Errors manufactured for exactly 2nd order: E = h².
	ladder := []LadderPoint{
		{H: 0.1, L1: 0.01},
		{H: 0.05, L1: 0.0025},
		{H: 0.025, L1: 0.000625},
	}
	orders := observedOrders(ladder, func(p LadderPoint) float64 { return p.L1 })
	if len(orders) != 2 {
		t.Fatalf("got %d orders", len(orders))
	}
	for _, o := range orders {
		if math.Abs(o-2) > 1e-12 {
			t.Errorf("order = %v, want 2", o)
		}
	}
	if f := fittedOrder(ladder, func(p LadderPoint) float64 { return p.L1 }); math.Abs(f-2) > 1e-12 {
		t.Errorf("fitted order = %v, want 2", f)
	}
}

func TestObservedOrdersDegenerate(t *testing.T) {
	ladder := []LadderPoint{{H: 0.1, L1: 0}, {H: 0.05, L1: 0.001}}
	orders := observedOrders(ladder, func(p LadderPoint) float64 { return p.L1 })
	if !math.IsNaN(orders[0]) {
		t.Errorf("zero-error pair should give NaN, got %v", orders[0])
	}
	if f := fittedOrder(ladder[:1], func(p LadderPoint) float64 { return p.L1 }); !math.IsNaN(f) {
		t.Errorf("single-point fit should give NaN, got %v", f)
	}
}

func TestNormAccum(t *testing.T) {
	var a normAccum
	a.addCells([]float64{3, -4})
	l1, l2, linf := a.norms()
	if math.Abs(l1-3.5) > 1e-15 {
		t.Errorf("L1 = %v, want 3.5", l1)
	}
	if math.Abs(l2-math.Sqrt(12.5)) > 1e-15 {
		t.Errorf("L2 = %v, want sqrt(12.5)", l2)
	}
	if linf != 4 {
		t.Errorf("Linf = %v, want 4", linf)
	}
}

func TestRelDrift(t *testing.T) {
	if d := relDrift(1.0+1e-9, 1.0, 0); math.Abs(d-1e-9) > 1e-15 {
		t.Errorf("relDrift = %v", d)
	}
	if d := relDrift(0.5, 0, 2); d != 0.25 {
		t.Errorf("scaled relDrift = %v, want 0.25", d)
	}
	if d := relDrift(0.5, 0, 0); d != 0.5 {
		t.Errorf("absolute fallback = %v, want 0.5", d)
	}
}

func TestBandsCheck(t *testing.T) {
	bands := Bands{"short": {
		"a.x":       {Op: "le", Bound: 1},
		"a.y":       {Op: "ge", Bound: 2},
		"a.missing": {Op: "le", Bound: 1},
		"absent.z":  {Op: "le", Bound: 1},
	}}
	scen := map[string]*Result{"a": {Metrics: map[string]float64{"x": 0.5, "y": 1.5}}}
	checks := bands.Check(Short, scen)
	got := map[string]bool{}
	for _, c := range checks {
		got[c.Name] = c.Pass
	}
	if !got["a.x"] {
		t.Error("a.x should pass (0.5 <= 1)")
	}
	if got["a.y"] {
		t.Error("a.y should fail (1.5 < 2)")
	}
	if pass, ok := got["a.missing"]; !ok || pass {
		t.Error("missing metric must be reported as a failing check")
	}
	if _, ok := got["absent.z"]; ok {
		t.Error("bands of unselected scenarios must be skipped")
	}
}

func TestDefaultBandsParse(t *testing.T) {
	bands, err := DefaultBands()
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"short", "full"} {
		table := bands[mode]
		if len(table) == 0 {
			t.Fatalf("no %s bands", mode)
		}
		for name, b := range table {
			if b.Op != "le" && b.Op != "ge" {
				t.Errorf("%s/%s: bad op %q", mode, name, b.Op)
			}
		}
		for _, headline := range []string{"sod.order_l1", "iface.mass_drift", "iface.u_drift", "iface.p_drift"} {
			if _, ok := table[headline]; !ok {
				t.Errorf("%s bands missing headline constraint %s", mode, headline)
			}
		}
	}
	if b := bands["short"]["iface.mass_drift"]; b.Bound > 1e-12 {
		t.Errorf("iface.mass_drift band %.1e looser than 1e-12", b.Bound)
	}
	if b := bands["short"]["sod.order_l1"]; b.Bound < 0.8 {
		t.Errorf("sod.order_l1 band %.2f below 0.8", b.Bound)
	}
}

func TestInterpAt(t *testing.T) {
	times := []float64{0, 1, 2}
	vals := []float64{10, 20, 40}
	for _, tc := range []struct{ t, want float64 }{
		{-1, 10}, {0, 10}, {0.5, 15}, {1.5, 30}, {2, 40}, {3, 40},
	} {
		if got := interpAt(times, vals, tc.t); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("interpAt(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
	if got := interpAt(nil, nil, 1); !math.IsNaN(got) {
		t.Errorf("empty series should give NaN, got %v", got)
	}
}
