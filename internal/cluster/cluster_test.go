package cluster

import (
	"math"
	"testing"

	"cubism/internal/core"
	"cubism/internal/grid"
	"cubism/internal/mpi"
	"cubism/internal/node"
	"cubism/internal/physics"
)

// runWorld executes one rank body per rank and returns rank 0's grid data
// flattened into a global field sampler.
func runRanks(t *testing.T, cfg Config, steps int, step func(*Rank)) map[[3]int]physics.Prim {
	t.Helper()
	n := cfg.RankDims[0] * cfg.RankDims[1] * cfg.RankDims[2]
	world := mpi.NewWorld(n)
	type cell struct {
		pos [3]int
		pr  physics.Prim
	}
	out := make(chan []cell, n)
	world.Run(func(comm *mpi.Comm) {
		r := NewRank(comm, cfg)
		for s := 0; s < steps; s++ {
			step(r)
		}
		// Collect global cells (block coordinates are box-global).
		var cells []cell
		g := r.G
		nn := g.N
		for _, b := range g.Blocks {
			for iz := 0; iz < nn; iz++ {
				for iy := 0; iy < nn; iy++ {
					for ix := 0; ix < nn; ix++ {
						c := b.At(ix, iy, iz)
						cons := physics.Cons{
							R: float64(c[physics.QR]), RU: float64(c[physics.QU]),
							RV: float64(c[physics.QV]), RW: float64(c[physics.QW]),
							E: float64(c[physics.QE]), G: float64(c[physics.QG]), Pi: float64(c[physics.QP]),
						}
						cells = append(cells, cell{
							pos: [3]int{b.X*nn + ix, b.Y*nn + iy, b.Z*nn + iz},
							pr:  cons.ToPrim(),
						})
					}
				}
			}
		}
		out <- cells
	})
	close(out)
	field := make(map[[3]int]physics.Prim)
	for cells := range out {
		for _, c := range cells {
			field[c.pos] = c.pr
		}
	}
	return field
}

// advance takes the rank's own step, staged or pipelined per its config.
func advance(r *Rank) { r.Advance() }

// vectorAdvance takes the same step on the QPX-model Vec4 engine, swapped
// in before the rank's first step. The vector kernels are no runtime option
// of the cluster; they remain an oracle of its tests.
func vectorAdvance(r *Rank) {
	if !r.Engine.Vector {
		r.Engine.Close()
		r.Engine = node.New(r.G, r.Cfg.BC, r.Cfg.Workers, true)
		r.Engine.SetTrace(r.tr, r.rankID)
	}
	r.Advance()
}

// sspAdvance takes one step of the classic three-register Shu-Osher
// SSP-RK3 (core.UpdateSSP), the memory-footprint ablation of the paper's
// 2N low-storage scheme, kept as a test oracle.
func sspAdvance(r *Rank) {
	dt := r.MaxDT()
	u0 := make([][]float32, len(r.G.Blocks))
	for i, b := range r.G.Blocks {
		u0[i] = append([]float32(nil), b.Data...)
	}
	for s := 0; s < 3; s++ {
		r.InstallHalos(r.ExchangeGhosts(s))
		r.Engine.ComputeRHS(r.G.Blocks, r.rhs)
		for i, b := range r.G.Blocks {
			core.UpdateSSP(b.Data, u0[i], r.rhs[i], s, dt)
		}
	}
	r.Step++
	r.Time += dt
}

func sodConfig(rankDims [3]int, blockDims [3]int) Config {
	return Config{
		RankDims:  rankDims,
		BlockDims: blockDims,
		BlockSize: 8,
		Extent:    1,
		BC:        grid.DefaultBC(),
		Workers:   2,
		CFL:       0.3,
		Init: func(x, y, z float64) physics.Prim {
			g := 1 / (1.4 - 1)
			if x < 0.5 {
				return physics.Prim{Rho: 1, P: 1, G: g, Pi: 0}
			}
			return physics.Prim{Rho: 0.125, P: 0.1, G: g, Pi: 0}
		},
	}
}

// TestSodShockTube validates the full solver stack (grid, lab, WENO5, HLLE,
// RK3, node scheduling, cluster exchange) against the exact Riemann
// solution of Sod's problem.
func TestSodShockTube(t *testing.T) {
	cfg := sodConfig([3]int{1, 1, 1}, [3]int{8, 1, 1}) // 64x8x8 cells
	world := mpi.NewWorld(1)
	var l1 float64
	var tEnd float64
	world.Run(func(comm *mpi.Comm) {
		r := NewRank(comm, cfg)
		for r.Time < 0.15 {
			r.Advance()
		}
		tEnd = r.Time
		exact := physics.RiemannExact{
			Left:  physics.Prim{Rho: 1, P: 1, G: 2.5, Pi: 0},
			Right: physics.Prim{Rho: 0.125, P: 0.1, G: 2.5, Pi: 0},
		}
		g := r.G
		n := g.N
		count := 0
		for _, b := range g.Blocks {
			if b.Y != 0 || b.Z != 0 {
				continue
			}
			for ix := 0; ix < n; ix++ {
				gx := b.X*n + ix
				x, _, _ := g.CellCenter(gx, 4, 4)
				c := b.At(ix, 4, 4)
				want := exact.Sample((x - 0.5) / tEnd)
				l1 += math.Abs(float64(c[physics.QR]) - want.Rho)
				count++
			}
		}
		l1 /= float64(count)
	})
	if l1 > 0.015 {
		t.Errorf("Sod L1 density error %.4f exceeds 0.015 at t=%.3f", l1, tEnd)
	}
}

// TestConservation: on a periodic box, total mass, momentum and energy are
// conserved to float32 accumulation accuracy.
func TestConservation(t *testing.T) {
	cfg := Config{
		RankDims:  [3]int{1, 1, 1},
		BlockDims: [3]int{2, 2, 2},
		BlockSize: 8,
		Extent:    1,
		BC:        grid.PeriodicBC(),
		Workers:   2,
		CFL:       0.3,
		Init: func(x, y, z float64) physics.Prim {
			return physics.Prim{
				Rho: 1 + 0.2*math.Sin(2*math.Pi*x)*math.Cos(2*math.Pi*y),
				U:   0.1 * math.Sin(2*math.Pi*z),
				V:   -0.05 * math.Cos(2*math.Pi*x),
				P:   1 + 0.1*math.Cos(2*math.Pi*y),
				G:   2.5,
				Pi:  0,
			}
		},
	}
	world := mpi.NewWorld(1)
	world.Run(func(comm *mpi.Comm) {
		r := NewRank(comm, cfg)
		sums := func() (m, px, e float64) {
			n := r.G.N
			for _, b := range r.G.Blocks {
				for iz := 0; iz < n; iz++ {
					for iy := 0; iy < n; iy++ {
						for ix := 0; ix < n; ix++ {
							c := b.At(ix, iy, iz)
							m += float64(c[physics.QR])
							px += float64(c[physics.QU])
							e += float64(c[physics.QE])
						}
					}
				}
			}
			return
		}
		m0, p0, e0 := sums()
		for s := 0; s < 10; s++ {
			r.Advance()
		}
		m1, p1, e1 := sums()
		cells := float64(r.G.Cells())
		if d := math.Abs(m1-m0) / cells; d > 1e-6 {
			t.Errorf("mass drift %g per cell", d)
		}
		if d := math.Abs(p1-p0) / cells; d > 1e-6 {
			t.Errorf("momentum drift %g per cell", d)
		}
		if d := math.Abs(e1-e0) / cells; d > 1e-5 {
			t.Errorf("energy drift %g per cell", d)
		}
	})
}

// TestMultiRankMatchesSingleRank: decomposing the same global problem over
// 8 ranks must reproduce the single-rank solution bit for bit (ghost
// exchange correctness): the arithmetic order within a block does not depend
// on the decomposition, and ghosts travel as exact float32 copies.
func TestMultiRankMatchesSingleRank(t *testing.T) {
	steps := 5
	single := runRanks(t, sodConfig([3]int{1, 1, 1}, [3]int{4, 2, 2}), steps, advance)
	multi := runRanks(t, sodConfig([3]int{2, 2, 2}, [3]int{2, 1, 1}), steps, advance)
	if len(single) != len(multi) {
		t.Fatalf("cell counts differ: %d vs %d", len(single), len(multi))
	}
	for pos, a := range single {
		b, ok := multi[pos]
		if !ok {
			t.Fatalf("cell %v missing in multi-rank run", pos)
		}
		if a != b {
			t.Fatalf("cell %v: multi-rank %+v deviates from single-rank %+v", pos, b, a)
		}
	}
}

// TestWallReflection: a wall boundary must reflect a pressure pulse rather
// than let it leave the domain.
func TestWallReflection(t *testing.T) {
	cfg := Config{
		RankDims:  [3]int{1, 1, 1},
		BlockDims: [3]int{4, 1, 1},
		BlockSize: 8,
		Extent:    1,
		BC:        grid.WallBC(grid.XLo),
		Workers:   2,
		CFL:       0.3,
		Init: func(x, y, z float64) physics.Prim {
			p := 1.0
			if x > 0.2 && x < 0.4 {
				p = 5 // pulse moving both ways; part will hit the wall
			}
			return physics.Prim{Rho: 1, P: p, G: 2.5, Pi: 0}
		},
	}
	world := mpi.NewWorld(1)
	world.Run(func(comm *mpi.Comm) {
		r := NewRank(comm, cfg)
		d0 := r.Diagnose(grid.XLo, true)
		// March until the pulse reaches the wall.
		var peak float64
		for s := 0; s < 120; s++ {
			r.Advance()
			d := r.Diagnose(grid.XLo, true)
			if d.WallPressure > peak {
				peak = d.WallPressure
			}
		}
		if peak <= d0.WallPressure*1.2 {
			t.Errorf("wall pressure never rose: initial %.3f, peak %.3f", d0.WallPressure, peak)
		}
		// Mass flux through the reflecting wall is zero: total x-momentum
		// symmetric check is weaker; instead check density stayed positive.
		n := r.G.N
		for _, b := range r.G.Blocks {
			for iz := 0; iz < n; iz++ {
				for iy := 0; iy < n; iy++ {
					for ix := 0; ix < n; ix++ {
						if b.At(ix, iy, iz)[physics.QR] <= 0 {
							t.Fatal("negative density after wall reflection")
						}
					}
				}
			}
		}
	})
}

// TestVectorMatchesScalarCluster: the QPX engine must produce the same
// trajectory as the scalar engine.
func TestVectorMatchesScalarCluster(t *testing.T) {
	base := sodConfig([3]int{1, 1, 1}, [3]int{4, 1, 1})
	steps := 5
	a := runRanks(t, base, steps, advance)
	b := runRanks(t, base, steps, vectorAdvance)
	var maxDiff float64
	for pos, pa := range a {
		pb := b[pos]
		d := math.Abs(pa.Rho-pb.Rho) + math.Abs(pa.P-pb.P)
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-4 {
		t.Errorf("vector deviates from scalar by %g", maxDiff)
	}
}

func TestDiagnosticsEquivRadius(t *testing.T) {
	// A vapor sphere of radius R in liquid: the diagnostic equivalent
	// radius must come out near R.
	R := 0.2
	cfg := Config{
		RankDims:  [3]int{1, 1, 1},
		BlockDims: [3]int{2, 2, 2},
		BlockSize: 16,
		Extent:    1,
		BC:        grid.DefaultBC(),
		Workers:   2,
		CFL:       0.3,
		Init: func(x, y, z float64) physics.Prim {
			dx, dy, dz := x-0.5, y-0.5, z-0.5
			a := 0.0
			if math.Sqrt(dx*dx+dy*dy+dz*dz) < R {
				a = 1
			}
			g, pi := physics.Mix(physics.Liquid, physics.Vapor, a)
			return physics.Prim{
				Rho: (1-a)*1000 + a*1,
				P:   (1-a)*100e5 + a*0.0234e5,
				G:   g, Pi: pi,
			}
		},
	}
	world := mpi.NewWorld(1)
	world.Run(func(comm *mpi.Comm) {
		r := NewRank(comm, cfg)
		d := r.Diagnose(grid.XLo, false)
		if math.Abs(d.EquivRadius-R)/R > 0.1 {
			t.Errorf("equivalent radius %.3f, want %.3f +- 10%%", d.EquivRadius, R)
		}
		if d.MaxPressure < 99e5 {
			t.Errorf("max pressure %.3g, want ~1e7", d.MaxPressure)
		}
	})
}

// TestTimeStepperAblation: the three-register SSP-RK3 and the low-storage
// 2N scheme are different third-order integrators, so their Sod
// trajectories must agree closely (to the scheme truncation level) while
// not being identical.
func TestTimeStepperAblation(t *testing.T) {
	steps := 10
	base := sodConfig([3]int{1, 1, 1}, [3]int{4, 1, 1})
	a := runRanks(t, base, steps, advance)
	b := runRanks(t, base, steps, sspAdvance)
	var maxDiff float64
	identical := true
	for pos, pa := range a {
		pb := b[pos]
		d := math.Abs(pa.Rho - pb.Rho)
		if d > maxDiff {
			maxDiff = d
		}
		if pa.Rho != pb.Rho {
			identical = false
		}
	}
	if identical {
		t.Error("schemes produced identical states; ablation not exercised")
	}
	if maxDiff > 1e-3 {
		t.Errorf("schemes diverged by %g in density after %d steps", maxDiff, steps)
	}
}

// TestMirrorSymmetryPreserved: an x-mirror-symmetric initial condition must
// stay mirror symmetric under time stepping (catches any left/right bias in
// the reconstruction or flux logic).
func TestMirrorSymmetryPreserved(t *testing.T) {
	cfg := Config{
		RankDims:  [3]int{1, 1, 1},
		BlockDims: [3]int{4, 1, 1},
		BlockSize: 8,
		Extent:    1,
		BC:        grid.DefaultBC(),
		Workers:   2,
		CFL:       0.3,
		Init: func(x, y, z float64) physics.Prim {
			// Symmetric pressure bump at the center.
			d := x - 0.5
			return physics.Prim{
				Rho: 1,
				P:   1 + 2*math.Exp(-200*d*d),
				G:   2.5,
			}
		},
	}
	world := mpi.NewWorld(1)
	world.Run(func(comm *mpi.Comm) {
		r := NewRank(comm, cfg)
		for s := 0; s < 8; s++ {
			r.Advance()
		}
		g := r.G
		nx := g.CellsX()
		var maxAsym float64
		for ix := 0; ix < nx/2; ix++ {
			mx := nx - 1 - ix
			for _, q := range []int{physics.QR, physics.QE, physics.QP} {
				a := float64(g.Cell(ix, 4, 4, q))
				b := float64(g.Cell(mx, 4, 4, q))
				if d := math.Abs(a - b); d > maxAsym {
					maxAsym = d
				}
			}
			// x-momentum is antisymmetric.
			a := float64(g.Cell(ix, 4, 4, physics.QU))
			b := float64(g.Cell(mx, 4, 4, physics.QU))
			if d := math.Abs(a + b); d > maxAsym {
				maxAsym = d
			}
		}
		if maxAsym > 1e-4 {
			t.Errorf("mirror symmetry broken by %g after 8 steps", maxAsym)
		}
	})
}
