// Package verify is the solver's verification subsystem: a registry of
// exact-solution scenarios that run through the real sim/cluster stack at a
// resolution ladder, measure error norms and observed convergence order
// against analytic references, and audit conservation of mass, momentum and
// energy per step (paper §2, eqs. 1–2; the validation ladder of the MFC
// solver papers).
//
// Each scenario produces a flat metric namespace ("sod.order_l1",
// "iface.mass_drift", ...) that is checked against tolerance bands stored
// in testdata/tolerances.json. The short ladder runs under plain
// `go test ./internal/verify` so tier-1 catches physics regressions; the
// full ladder runs via `cmd/mpcf-verify` (or `make verify`) and writes a
// machine-readable VERIFY.json that later performance and refactoring PRs
// are gated on.
package verify

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"

	"cubism/internal/telemetry"
)

// Mode selects the resolution ladder depth.
type Mode string

// Supported modes: Short is the tier-1 (go test) ladder, Full the CI /
// release gate.
const (
	Short Mode = "short"
	Full  Mode = "full"
)

// Options configures a verification run.
type Options struct {
	// Workers per rank threaded into the cluster configs (0: NumCPU).
	Workers int
	// StepLog (optional) receives the structured per-step records of every
	// scenario run, reusing the telemetry step logger.
	StepLog *telemetry.StepLogger
}

// Scenario is one registered verification case.
type Scenario struct {
	Name        string
	Description string
	// Run executes the case and returns its result. It must populate
	// Result.Metrics with every value the tolerance bands reference.
	Run func(mode Mode, opt Options) (*Result, error)
}

// Result is the outcome of one scenario.
type Result struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Mode        string `json:"mode"`
	// Metrics is the flat namespace checked against tolerance bands; keys
	// are metric names without the scenario prefix.
	Metrics map[string]float64 `json:"metrics"`
	// Ladder holds the per-resolution norms of convergence scenarios.
	Ladder []LadderPoint `json:"ladder,omitempty"`
	// Series holds the sampled radius trajectory of the Rayleigh case.
	Series []RadiusSample `json:"series,omitempty"`
	// Notes carries free-form context (star states, step counts, ...).
	Notes []string `json:"notes,omitempty"`
}

// LadderPoint is the error measurement at one resolution of a ladder.
type LadderPoint struct {
	Cells int     `json:"cells"` // cells along the resolved direction
	H     float64 `json:"h"`
	TEnd  float64 `json:"t_end"`
	Steps int     `json:"steps"`
	L1    float64 `json:"l1"`
	L2    float64 `json:"l2"`
	Linf  float64 `json:"linf"`
}

// RadiusSample is one point of the bubble-radius trajectory against the
// Rayleigh-Plesset reference.
type RadiusSample struct {
	T      float64 `json:"t"`
	RSim   float64 `json:"r_sim"`   // simulated R(t)/R(0)
	RExact float64 `json:"r_exact"` // ODE R(t)/R0
}

// Registry returns the built-in scenarios in run order.
func Registry() []Scenario {
	return []Scenario{
		sodScenario(),
		ifaceScenario(),
		rayleighScenario(),
		cloudCollapseScenario(),
		shockBubbleScenario(),
		bubbleArrayScenario(),
	}
}

// Report is the machine-readable verification record (VERIFY.json).
type Report struct {
	Version   int                `json:"version"`
	Mode      string             `json:"mode"`
	GoVersion string             `json:"go_version"`
	Scenarios map[string]*Result `json:"scenarios"`
	Checks    []Check            `json:"checks"`
	Pass      bool               `json:"pass"`
}

// Check is one tolerance-band comparison.
type Check struct {
	Name  string  `json:"name"` // "scenario.metric"
	Value float64 `json:"value"`
	Op    string  `json:"op"` // "le" or "ge"
	Bound float64 `json:"bound"`
	Pass  bool    `json:"pass"`
}

// RunAll executes every registered scenario (or the named subset) and
// checks the result against the tolerance bands for the mode.
func RunAll(mode Mode, opt Options, bands Bands, only ...string) (*Report, error) {
	sel := map[string]bool{}
	for _, n := range only {
		sel[n] = true
	}
	rep := &Report{
		Version:   1,
		Mode:      string(mode),
		GoVersion: runtime.Version(),
		Scenarios: map[string]*Result{},
	}
	for _, sc := range Registry() {
		if len(sel) > 0 && !sel[sc.Name] {
			continue
		}
		res, err := sc.Run(mode, opt)
		if err != nil {
			return nil, fmt.Errorf("verify: scenario %s: %w", sc.Name, err)
		}
		res.Name = sc.Name
		res.Description = sc.Description
		res.Mode = string(mode)
		rep.Scenarios[sc.Name] = res
	}
	rep.Checks = bands.Check(mode, rep.Scenarios)
	rep.Pass = true
	for _, c := range rep.Checks {
		if !c.Pass {
			rep.Pass = false
		}
	}
	return rep, nil
}

// WriteJSON writes the report to path (VERIFY.json).
func (r *Report) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Table renders the checks as an aligned text table for terminal output.
func (r *Report) Table() string {
	out := fmt.Sprintf("verification mode=%s go=%s\n", r.Mode, r.GoVersion)
	names := make([]string, 0, len(r.Scenarios))
	for n := range r.Scenarios {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := r.Scenarios[n]
		out += fmt.Sprintf("\n[%s] %s\n", n, s.Description)
		for _, lp := range s.Ladder {
			out += fmt.Sprintf("  n=%4d  h=%.5f  t=%.4f  steps=%4d  L1=%.3e  L2=%.3e  Linf=%.3e\n",
				lp.Cells, lp.H, lp.TEnd, lp.Steps, lp.L1, lp.L2, lp.Linf)
		}
		for _, note := range s.Notes {
			out += "  " + note + "\n"
		}
	}
	out += "\nchecks:\n"
	for _, c := range r.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		op := "<="
		if c.Op == "ge" {
			op = ">="
		}
		out += fmt.Sprintf("  %-28s %12.4e %s %10.4e  %s\n", c.Name, c.Value, op, c.Bound, status)
	}
	if r.Pass {
		out += "result: PASS\n"
	} else {
		out += "result: FAIL\n"
	}
	return out
}
