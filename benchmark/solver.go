package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"cubism/internal/cluster"
	"cubism/internal/mpi"
	"cubism/internal/scenario"
	"cubism/internal/sim"
)

// buildCase builds the seeded cloud case at the spec's decomposition, on the
// execution model mpcf-sim runs by default (pipelined lsrk3, scalar).
func buildCase(sp spec, seed int64) (*scenario.Case, error) {
	c, err := scenario.Build("cloud", scenario.Params{
		Ranks: sp.ranks, Blocks: sp.blocks, BlockSize: sp.n, Steps: sp.steps,
		Workers: sp.workers, Seed: seed, DiagEvery: sp.diagEvery,
	})
	if err != nil {
		return nil, err
	}
	c.Config.Cluster.Pipeline = true
	c.Config.AuditEvery = sp.auditEvery
	return c, nil
}

// stepSample is what both solver passes keep of a step.
type stepSample struct {
	end      time.Time
	wallMS   float64
	observed bool // the step also computed the conserved totals
}

// solverRoundSim is one round through the production driver, sim.Run, with
// tracing off: the numbers a user of mpcf-sim sees.
func solverRoundSim(sp spec, e *env) (round, error) {
	t0 := time.Now()
	c, err := buildCase(sp, e.seed)
	if err != nil {
		return round{}, err
	}
	var m *mesh
	if sp.tcp {
		if m, err = meshTCP(sp.nRanks(), nil); err != nil {
			return round{}, err
		}
	}
	obs := scenario.NewObserver(c)
	var steps []stepSample
	var totals cluster.Totals
	cfg := c.Config
	cfg.OnFinish = func(r *cluster.Rank) {
		tot := r.ConservedTotals() // collective: every rank takes part
		if r.Comm.Rank() == 0 {
			totals = tot
		}
	}
	onStep := func(s sim.StepInfo) {
		steps = append(steps, stepSample{end: time.Now(), wallMS: s.WallMS, observed: s.HasTotals})
		obs.OnStep(s)
	}
	if m == nil {
		_, err = sim.Run(cfg, onStep)
	} else {
		// One sim.Run per single-rank world, as one mpcf-sim per process;
		// sim delivers the step callback on rank 0 only.
		errs := make([]error, len(m.worlds))
		var wg sync.WaitGroup
		for rank, w := range m.worlds {
			wg.Add(1)
			go func(rank int, w *mpi.World) {
				defer wg.Done()
				rcfg := cfg
				rcfg.World = w
				_, errs[rank] = sim.Run(rcfg, onStep)
			}(rank, w)
		}
		wg.Wait()
		for _, rerr := range errs {
			if err == nil {
				err = rerr
			}
		}
	}
	if err == nil {
		err = m.err()
	}
	if err != nil {
		return round{}, err
	}
	checkSolver(sp, e, steps, totals, obs.Metrics())
	return solverRound(sp, t0, steps, totals), nil
}

// solverRound reduces a round's step samples: the first step is set-up (it
// pays page faults and pool spawn), the rest are timed. Latency samples are
// means over sp.window consecutive steps of one kind.
func solverRound(sp spec, t0 time.Time, steps []stepSample, totals cluster.Totals) round {
	if len(steps) < 2 {
		return round{}
	}
	first, last := steps[0].end, steps[len(steps)-1].end
	r := round{
		setupS: first.Sub(t0).Seconds(), wallS: last.Sub(first).Seconds(),
		ops: len(steps) - 1, totals: totals,
	}
	for _, s := range steps[1:] {
		if s.observed {
			r.aux = append(r.aux, s.wallMS)
		} else {
			r.op = append(r.op, s.wallMS)
		}
	}
	r.op, r.aux = windowMeans(r.op, sp.window), windowMeans(r.aux, sp.window)
	return r
}

// windowMeans replaces xs by the means of its consecutive full windows of w
// samples; a trailing partial window is dropped.
func windowMeans(xs []float64, w int) []float64 {
	if w <= 1 {
		return xs
	}
	out := xs[:0]
	for i := 0; i+w <= len(xs); i += w {
		sum := 0.0
		for _, x := range xs[i : i+w] {
			sum += x
		}
		out = append(out, sum/float64(w))
	}
	return out
}

// solverRoundTraced is the same round hand-driven through cluster.Rank, so
// that the boundaries sim.Run hides (MaxDT, RKStep, diagnostics, audit) can
// be timed from outside. Rank 0 records the spans.
func solverRoundTraced(sp spec, e *env, rec *recorder) (round, error) {
	t0 := time.Now()
	root := rec.begin("workload."+sp.name, -1)
	s := rec.begin("scenario.Build", root)
	c, err := buildCase(sp, e.seed)
	rec.end(s)
	if err != nil {
		return round{}, err
	}
	var m *mesh
	if sp.tcp {
		s = rec.begin("mpi.ConnectTCP", root)
		m, err = meshTCP(sp.nRanks(), nil)
		rec.end(s)
		if err != nil {
			return round{}, err
		}
	}
	var steps []stepSample
	var totals cluster.Totals
	obs := scenario.NewObserver(c)
	err = m.run(sp.nRanks(), func(comm *mpi.Comm) {
		tr := rec
		if comm.Rank() != 0 {
			tr = nil
		}
		ccfg := c.Config.Cluster
		ccfg.Init = nil // initialised below, under its own span
		s := tr.begin("cluster.NewRank", root)
		r := cluster.NewRank(comm, ccfg)
		tr.end(s)
		defer r.Close()
		s = tr.begin("cluster.Initialize", root)
		r.Initialize(c.Config.Cluster.Init)
		tr.end(s)
		for r.Step < sp.steps {
			start := time.Now()
			dt := tracedStep(tr, root, r)
			info := sim.StepInfo{Step: r.Step, Time: r.Time, DT: dt}
			if r.Step%sp.diagEvery == 0 {
				s = tr.begin("cluster.Diagnose", root)
				info.Diag, info.HasDiag = r.Diagnose(c.Config.Wall, c.Config.HasWall), true
				tr.end(s)
			}
			if r.Step%sp.auditEvery == 0 {
				s = tr.begin("cluster.ConservedTotals", root)
				info.Totals, info.HasTotals = r.ConservedTotals(), true
				tr.end(s)
			}
			if comm.Rank() == 0 {
				now := time.Now()
				steps = append(steps, stepSample{end: now, wallMS: now.Sub(start).Seconds() * 1e3, observed: info.HasTotals})
				obs.OnStep(info)
			}
		}
		s = tr.begin("check.ConservedTotals", root)
		tot := r.ConservedTotals()
		tr.end(s)
		if comm.Rank() == 0 {
			totals = tot
		}
	})
	rec.end(root)
	if err != nil {
		return round{}, err
	}
	checkSolver(sp, e, steps, totals, obs.Metrics())
	return solverRound(sp, t0, steps, totals), nil
}

// tracedStep advances one step as Rank.Advance does, with a span around each
// of its two calls. What happens inside them is attributed from the public
// counters read before and after: the pool's busy time (core, grid and node
// work, per worker), and the rank's ghost-post and halo-wait clocks.
func tracedStep(tr *recorder, parent int, r *cluster.Rank) float64 {
	workers := time.Duration(r.Engine.Workers())
	busy0 := r.Engine.PoolStats().BusyNS
	s := tr.begin("cluster.MaxDT", parent)
	dt := r.MaxDT()
	tr.end(s)
	busy1 := r.Engine.PoolStats().BusyNS
	if tr != nil {
		tr.child(s, "core_node.MaxCharVel", time.Duration(busy1-busy0)/workers)
		tr.rest(s, "mpi.Allreduce") // MaxDT is the pool sweep, one allreduce and a multiply
	}
	ghost0, wait0 := r.CommPhases()
	s = tr.begin("cluster.RKStep", parent)
	r.RKStep(dt)
	tr.end(s)
	if tr != nil {
		ghost1, wait1 := r.CommPhases()
		tr.child(s, "core_node.stages", time.Duration(r.Engine.PoolStats().BusyNS-busy1)/workers)
		tr.child(s, "mpi.ghost_post", ghost1-ghost0)
		tr.child(s, "mpi.halo_wait", wait1-wait0)
	}
	return dt
}

// checkSolver counts every step as one attempted operation and checks the
// round's physics: the conserved totals against the committed reference for
// the default seed (a tolerance, not bitwise, so a kernel that is explicitly
// re-baselined for FMA contraction is not a failure), finite and
// mass-conserving for every seed, and the scale-free cloud bands of
// internal/verify/testdata/tolerances.json.
func checkSolver(sp spec, e *env, steps []stepSample, tot cluster.Totals, obs map[string]float64) {
	for i := 0; i < sp.steps; i++ {
		e.chk.ok(i < len(steps), "%s: step %d did not complete", sp.name, i+1)
	}
	e.chk.ok(tot.NonFinite == 0 && finite(tot.Mass, tot.Energy, tot.MomX, tot.MomY, tot.MomZ),
		"%s: non-finite state (%d cells)", sp.name, tot.NonFinite)
	e.chk.ok(obs["non_finite"] == 0, "%s: %v non-finite cells during the run", sp.name, obs["non_finite"])
	// The mass-drift and initial-radius bands were set at 32 cells per edge;
	// an 8³-block run resolves a bubble with two or three cells, so it gets
	// a looser drift band and no radius band.
	if minEdge := sp.n * min(sp.ranks[0]*sp.blocks[0], sp.ranks[1]*sp.blocks[1], sp.ranks[2]*sp.blocks[2]); minEdge >= 32 {
		e.chk.ok(obs["mass_drift"] <= 1e-3, "%s: mass drift %g", sp.name, obs["mass_drift"])
		e.chk.ok(obs["r0_rel_err"] <= 0.15, "%s: initial equivalent radius off by %g", sp.name, obs["r0_rel_err"])
	} else {
		e.chk.ok(obs["mass_drift"] <= 1e-2, "%s: mass drift %g", sp.name, obs["mass_drift"])
	}
	e.chk.ok(obs["ke_peak"] <= 1e5, "%s: kinetic energy peak %g (start-up spike)", sp.name, obs["ke_peak"])
	e.compare(sp, "totals", map[string]float64{
		"mass": tot.Mass, "energy": tot.Energy, "abs_mom": tot.AbsMomSum,
		"gamma_min": tot.GammaMin, "gamma_max": tot.GammaMax, "time": tot.Time,
	}, 1e-6)
	e.compare(sp, "observables", map[string]float64{
		"peak_amp": obs["peak_amp"], "wall_amp": obs["wall_amp"],
		"ke_peak": obs["ke_peak"], "min_ratio": obs["min_ratio"],
	}, 1e-6)
}

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// sameTotals reports whether two conserved-total records are bitwise equal.
func sameTotals(a, b cluster.Totals) error {
	for _, f := range []struct {
		name string
		a, b float64
	}{
		{"mass", a.Mass, b.Mass}, {"mom_x", a.MomX, b.MomX}, {"mom_y", a.MomY, b.MomY},
		{"mom_z", a.MomZ, b.MomZ}, {"energy", a.Energy, b.Energy}, {"time", a.Time, b.Time},
		{"gamma_min", a.GammaMin, b.GammaMin}, {"gamma_max", a.GammaMax, b.GammaMax},
		{"pi_min", a.PiMin, b.PiMin}, {"pi_max", a.PiMax, b.PiMax},
	} {
		if math.Float64bits(f.a) != math.Float64bits(f.b) {
			return fmt.Errorf("%s differs: %v vs %v", f.name, f.a, f.b)
		}
	}
	if a.Step != b.Step {
		return fmt.Errorf("step differs: %d vs %d", a.Step, b.Step)
	}
	return nil
}
