// Cloud cavitation collapse near a solid wall — a laptop-scale version of
// the paper's production run (§7), driven through the scenario registry: the
// same named case cmd/mpcf-sim (-scenario), cmd/mpcf-verify and the
// repository benchmark (cloud32_node) run. The example prints the Figure 5
// diagnostics (maximum pressure in the field and on the wall, kinetic
// energy, equivalent cloud radius) as CSV while the run advances, and the
// reduced collapse observables when it finishes.
//
//	go run ./examples/cloudcollapse [-scenario cloud] [-bubbles N] [-beta B] [-dumps]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"cubism"
)

func main() {
	name := flag.String("scenario", "cloud", fmt.Sprintf("named scenario, one of %v", cubism.ScenarioNames()))
	nb := flag.Int("bubbles", 0, "bubble count (cloud) or lattice edge (array); 0: scenario default")
	beta := flag.Float64("beta", 0, "target interaction parameter β — picks the cloud bubble count (0: off)")
	steps := flag.Int("steps", 0, "number of time steps (0: scenario default)")
	n := flag.Int("n", 16, "block edge in cells")
	blocks := flag.Int("blocks", 4, "blocks per dimension")
	dumps := flag.Bool("dumps", false, "write compressed p and Γ snapshots")
	seed := flag.Int64("seed", 0, "cloud random seed (0: scenario default)")
	flag.Parse()

	c, err := cubism.BuildScenario(*name, cubism.ScenarioParams{
		Blocks:    [3]int{*blocks, *blocks, *blocks},
		BlockSize: *n,
		Steps:     *steps,
		Bubbles:   *nb,
		Seed:      *seed,
		Beta:      *beta,
		DiagEvery: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "%s: %d bubbles, β=%.3f, α₀=%.4f, Rayleigh τ=%.3e\n",
		c.Name, len(c.Bubbles), c.Beta, c.VoidFraction, c.RayleighTau)

	cfg := cubism.ScenarioConfig(c)
	if *dumps {
		dir, err := os.MkdirTemp("", "mpcf-dumps-*")
		if err != nil {
			log.Fatal(err)
		}
		cfg.DumpEvery = 50
		cfg.DumpDir = dir
		fmt.Fprintf(os.Stderr, "dumps: %s (p at eps=1e-2, Γ at eps=1e-3)\n", dir)
	}

	obs := cubism.NewScenarioObserver(c)
	fmt.Println("time,dt,max_p_over_ambient,wall_p_over_ambient,kinetic_energy,equiv_radius")
	summary, err := cubism.Run(cfg, func(s cubism.StepInfo) {
		obs.OnStep(s)
		if s.HasDiag {
			fmt.Printf("%.4e,%.3e,%.3f,%.3f,%.4e,%.4f\n",
				s.Time, s.DT, s.Diag.MaxPressure/c.AmbientP, s.Diag.WallPressure/c.AmbientP,
				s.Diag.KineticEnergy, s.Diag.EquivRadius)
		}
		for q, rate := range s.DumpRates {
			fmt.Fprintf(os.Stderr, "step %d: dumped %s at %.1f:1\n", s.Step, q, rate)
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	metrics := obs.Metrics()
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(os.Stderr, "\nobservables:\n")
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-14s %.6g\n", k, metrics[k])
	}
	fmt.Fprintf(os.Stderr, "\n%d steps in %v (%.2f Mpoints/s)\n%s",
		summary.Steps, summary.WallTime.Round(1e6), summary.PointsPerSec/1e6, summary.Report)
}
