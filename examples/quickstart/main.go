// Quickstart: a Sod shock tube through the full solver stack in ~40 lines.
//
// Runs the classic Riemann problem on a 64x16x16 grid (8 blocks of 16³ in
// x), prints per-step diagnostics, and reports the final throughput.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"cubism"
)

func main() {
	cfg := cubism.Config{
		Cluster: cubism.ClusterConfig{
			BlockDims: [3]int{4, 1, 1}, // 4 blocks of 16³ along x
			BlockSize: 16,
			Extent:    1.0,
			Init:      cubism.SodInit,
		},
		TEnd:      0.15,
		Steps:     10000, // bounded by TEnd
		DiagEvery: 10,
	}
	fmt.Println("Sod shock tube, 64x16x16 cells, WENO5/HLLE/RK3")
	summary, err := cubism.Run(cfg, func(s cubism.StepInfo) {
		if s.HasDiag {
			fmt.Printf("step %4d  t=%.4f  dt=%.2e  max p=%.3f  Ekin=%.3e\n",
				s.Step, s.Time, s.DT, s.Diag.MaxPressure, s.Diag.KineticEnergy)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d steps to t=%.3f in %v (%.2f Mpoints/s)\n",
		summary.Steps, summary.SimTime, summary.WallTime.Round(1e6),
		summary.PointsPerSec/1e6)
	fmt.Println("\nKernel breakdown (paper Figure 7: RHS dominates):")
	fmt.Print(summary.Report)
}
