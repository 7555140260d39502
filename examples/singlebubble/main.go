// Single-bubble collapse against the Rayleigh model — the century-old
// reference the paper's introduction positions cloud simulations against
// ("current estimates of cavitation phenomena are largely based on the
// theory of single bubble collapse as developed ... by Lord Rayleigh").
//
// A vapor bubble at 0.0234 bar sits in liquid pressurized at 100 bar. The
// program integrates the classical Rayleigh–Plesset ODE and runs the full
// 3D compressible solver on the same configuration, printing both radius
// histories; the 3D collapse should track the incompressible ODE until
// compressibility effects take over near the final stage.
//
//	go run ./examples/singlebubble [-n 16] [-steps 400]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"cubism"
	"cubism/internal/physics"
)

func main() {
	n := flag.Int("n", 16, "block edge in cells")
	blocks := flag.Int("blocks", 4, "blocks per dimension")
	steps := flag.Int("steps", 300, "3D solver steps")
	flag.Parse()

	const (
		bubbleR = 0.12 // in domain units
		pInf    = 100e5
		pV      = 0.0234e5
		rhoL    = 1000.0
	)

	// Classical reference: Rayleigh-Plesset with adiabatic vapor cushion.
	rp := physics.RayleighPlesset{
		R0:    bubbleR,
		PInf:  pInf,
		PB0:   pV,
		Rho:   rhoL,
		Kappa: 1.4,
	}
	tau := physics.RayleighCollapseTime(bubbleR, rhoL, pInf-pV)
	fmt.Fprintf(os.Stderr, "Rayleigh collapse time: %.4e\n", tau)
	times, radii, err := rp.Integrate(1.2*tau, tau/50)
	if err != nil {
		log.Fatal(err)
	}

	// 3D compressible solver on the same setup.
	cfg := cubism.Config{
		Cluster: cubism.ClusterConfig{
			BlockDims: [3]int{*blocks, *blocks, *blocks},
			BlockSize: *n,
			Extent:    1.0,
			Init:      cubism.CloudField([]cubism.Bubble{{X: 0.5, Y: 0.5, Z: 0.5, R: bubbleR}}, 0.02),
		},
		Steps:     *steps,
		DiagEvery: 5,
	}
	type sample struct{ t, r float64 }
	var sim3d []sample
	if _, err := cubism.Run(cfg, func(s cubism.StepInfo) {
		if s.HasDiag {
			sim3d = append(sim3d, sample{s.Time, s.Diag.EquivRadius})
		}
	}); err != nil {
		log.Fatal(err)
	}

	fmt.Println("# source, t/tau, R/R0")
	for i := range times {
		fmt.Printf("rayleigh-plesset, %.4f, %.4f\n", times[i]/tau, radii[i]/bubbleR)
	}
	r0 := 0.0
	for _, s := range sim3d {
		if r0 == 0 {
			r0 = s.r
		}
		fmt.Printf("solver-3d, %.4f, %.4f\n", s.t/tau, s.r/r0)
	}
	fmt.Fprintln(os.Stderr, "# shape: the 3D radius tracks the ODE early, then departs as")
	fmt.Fprintln(os.Stderr, "# compressibility radiates the collapse energy (Hickling & Plesset)")
}
