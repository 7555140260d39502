// Shock-bubble interaction: a planar pressure wave in liquid impacting a
// single vapor bubble — the configuration of the software's predecessor
// (Hejazialhosseini et al., SC12, paper ref. [33,34]) and the elementary
// mechanism inside a collapsing cloud.
//
// The incoming liquid at 10x ambient pressure drives an asymmetric collapse;
// the run reports the bubble's equivalent radius and the peak pressure as
// the collapse focuses the wave.
//
//	go run ./examples/shockbubble [-n blockcells] [-steps N]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"cubism"
)

func main() {
	n := flag.Int("n", 16, "block edge in cells (at least 6)")
	steps := flag.Int("steps", 120, "number of time steps")
	flag.Parse()

	const (
		bubbleR  = 0.12
		shockX   = 0.20
		ambientP = 100e5 // pressurized liquid, 100 bar
		shockP   = 10 * ambientP
		bubbleP  = 0.0234e5
	)
	bubble := []cubism.Bubble{{X: 0.5, Y: 0.5, Z: 0.5, R: bubbleR}}

	cfg := cubism.Config{
		Cluster: cubism.ClusterConfig{
			BlockDims: [3]int{4, 4, 4},
			BlockSize: *n,
			Extent:    1.0,
			Init: func(x, y, z float64) cubism.State {
				// Two-phase field: bubble in liquid, plus a left shock state.
				field := cubism.CloudField(bubble, 0.02)
				s := field(x, y, z)
				if x < shockX {
					// Post-shock liquid state moving right.
					s.P = shockP
					s.Rho *= 1.1
					s.U = math.Sqrt((shockP - ambientP) * (1/0.9 - 1) / s.Rho * 0.9)
				}
				return s
			},
		},
		Steps:     *steps,
		DiagEvery: 5,
	}

	fmt.Println("# shock-bubble interaction: t, dt, equivalent_radius, max_pressure/ambient")
	r0 := 0.0
	summary, err := cubism.Run(cfg, func(s cubism.StepInfo) {
		if !s.HasDiag {
			return
		}
		if r0 == 0 {
			r0 = s.Diag.EquivRadius
		}
		fmt.Printf("%.4e, %.3e, %.4f, %.2f\n",
			s.Time, s.DT, s.Diag.EquivRadius/r0, s.Diag.MaxPressure/ambientP)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("# %d steps in %v (%.2f Mpoints/s)\n",
		summary.Steps, summary.WallTime.Round(1e6), summary.PointsPerSec/1e6)
}
