package main

import (
	"testing"

	"cubism"
)

// TestScenarioSmoke drives the example's scenario path end to end at a tiny
// resolution: every registered scenario must build through the public API,
// run, and hand the observer a finite observable set. This is the example's
// compile-and-run guard — it breaks when the registry or the public scenario
// surface drifts away from what the example (and its README snippet) shows.
func TestScenarioSmoke(t *testing.T) {
	for _, name := range cubism.ScenarioNames() {
		t.Run(name, func(t *testing.T) {
			c, err := cubism.BuildScenario(name, cubism.ScenarioParams{
				Blocks:    [3]int{2, 2, 2},
				BlockSize: 8,
				Steps:     2,
				Workers:   2,
				DiagEvery: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(c.Bubbles) == 0 {
				t.Fatal("scenario built no bubbles")
			}
			obs := cubism.NewScenarioObserver(c)
			if _, err := cubism.Run(c.Config, obs.OnStep); err != nil {
				t.Fatal(err)
			}
			m := obs.Metrics()
			if m["non_finite"] != 0 {
				t.Fatalf("non-finite cells after 2 steps: %v", m["non_finite"])
			}
			for _, k := range []string{"peak_amp", "ke_peak", "min_ratio"} {
				if _, ok := m[k]; !ok {
					t.Errorf("metric %s missing from %v", k, m)
				}
			}
		})
	}
}
