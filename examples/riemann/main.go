// Riemann problem validation suite: runs a battery of one-dimensional shock
// tube problems through the full 3D solver stack and reports the L1 error
// of each field against the exact solution of the generalized (stiffened
// gas) Riemann problem — the standard quantitative validation for the
// WENO5/HLLE/RK3 discretization at the heart of the paper.
//
//	go run ./examples/riemann [-cells 64]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"cubism/internal/cluster"
	"cubism/internal/grid"
	"cubism/internal/mpi"
	"cubism/internal/physics"
)

// problem is one Riemann configuration.
type problem struct {
	name        string
	left, right physics.Prim
	tEnd        float64
}

func problems() []problem {
	ideal := 1 / (1.4 - 1)
	return []problem{
		{
			name:  "sod",
			left:  physics.Prim{Rho: 1, P: 1, G: ideal},
			right: physics.Prim{Rho: 0.125, P: 0.1, G: ideal},
			tEnd:  0.15,
		},
		{
			name:  "lax",
			left:  physics.Prim{Rho: 0.445, U: 0.698, P: 3.528, G: ideal},
			right: physics.Prim{Rho: 0.5, U: 0, P: 0.571, G: ideal},
			tEnd:  0.1,
		},
		{
			name:  "double-rarefaction",
			left:  physics.Prim{Rho: 1, U: -0.5, P: 0.4, G: ideal},
			right: physics.Prim{Rho: 1, U: 0.5, P: 0.4, G: ideal},
			tEnd:  0.12,
		},
		{
			// Liquid water shock tube in the stiffened gas: the paper's
			// liquid phase with a 10:1 pressure jump.
			name:  "stiffened-liquid",
			left:  physics.Prim{Rho: 1000, P: 1000e5, G: physics.Liquid.G(), Pi: physics.Liquid.P()},
			right: physics.Prim{Rho: 1000, P: 100e5, G: physics.Liquid.G(), Pi: physics.Liquid.P()},
			tEnd:  2e-4,
		},
	}
}

func main() {
	cells := flag.Int("cells", 64, "cells along x (multiple of 16)")
	flag.Parse()

	fmt.Println("problem              cells    L1(rho)      L1(u)        L1(p)/scale")
	for _, pb := range problems() {
		l1r, l1u, l1p := run(pb, *cells)
		fmt.Printf("%-20s %5d    %.5f      %.5f      %.5f\n", pb.name, *cells, l1r, l1u, l1p)
	}
	fmt.Println("\nErrors are first-order in h at shocks/contacts (the formal limit of any")
	fmt.Println("shock-capturing scheme); halving h should roughly halve each entry.")
}

// run integrates one problem and returns normalized L1 errors.
func run(pb problem, cells int) (l1r, l1u, l1p float64) {
	n := 16
	nbx := cells / n
	cfg := cluster.Config{
		RankDims:  [3]int{1, 1, 1},
		BlockDims: [3]int{nbx, 1, 1},
		BlockSize: n,
		Extent:    1,
		BC:        grid.DefaultBC(),
		Workers:   2,
		CFL:       0.3,
		Pipeline:  true,
		Init: func(x, y, z float64) physics.Prim {
			if x < 0.5 {
				return pb.left
			}
			return pb.right
		},
	}
	world := mpi.NewWorld(1)
	world.Run(func(comm *mpi.Comm) {
		r := cluster.NewRank(comm, cfg)
		for r.Time < pb.tEnd {
			r.Advance()
		}
		exact := physics.RiemannExact{Left: pb.left, Right: pb.right}
		// Reference scales for normalization; the velocity scale is the
		// star-region speed (the natural magnitude of the induced flow).
		_, ustar, err := exact.Solve()
		if err != nil {
			log.Fatalf("%s: %v", pb.name, err)
		}
		rScale := math.Max(pb.left.Rho, pb.right.Rho)
		pScale := math.Max(pb.left.P, pb.right.P)
		uScale := math.Max(1e-12, math.Max(math.Abs(ustar),
			math.Max(math.Abs(pb.left.U), math.Abs(pb.right.U))))
		count := 0
		g := r.G
		for _, b := range g.Blocks {
			if b.Y != 0 || b.Z != 0 {
				continue
			}
			for ix := 0; ix < n; ix++ {
				gx := b.X*n + ix
				x, _, _ := g.CellCenter(gx, 0, 0)
				c := b.At(ix, 0, 0)
				cons := physics.Cons{
					R: float64(c[physics.QR]), RU: float64(c[physics.QU]),
					RV: float64(c[physics.QV]), RW: float64(c[physics.QW]),
					E: float64(c[physics.QE]), G: float64(c[physics.QG]), Pi: float64(c[physics.QP]),
				}
				got := cons.ToPrim()
				want := exact.Sample((x - 0.5) / r.Time)
				l1r += math.Abs(got.Rho-want.Rho) / rScale
				l1u += math.Abs(got.U-want.U) / uScale
				l1p += math.Abs(got.P-want.P) / pScale
				count++
			}
		}
		l1r /= float64(count)
		l1u /= float64(count)
		l1p /= float64(count)
	})
	if math.IsNaN(l1r) {
		log.Fatalf("%s produced NaN", pb.name)
	}
	return
}
