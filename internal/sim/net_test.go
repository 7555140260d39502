package sim

import (
	"bytes"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cubism/internal/cluster"
	"cubism/internal/mpi"
	"cubism/internal/telemetry"
)

// TestTCPBitwiseMatchesInproc is the transport-correctness keystone: the
// same 2-rank Sod problem advanced over the tcp wire must produce conserved
// totals bitwise identical to the in-process transport. Any divergence —
// a reordered reduction, a corrupted halo byte, a dropped frame — shows up
// as a flipped float64 bit here.
func TestTCPBitwiseMatchesInproc(t *testing.T) {
	const steps = 3
	baseCfg := func() Config {
		return Config{
			Cluster: cluster.Config{
				RankDims:  [3]int{2, 1, 1},
				BlockDims: [3]int{2, 1, 1},
				BlockSize: 8,
				Extent:    1,
				Workers:   2,
				CFL:       0.3,
				Init:      SodInit,
			},
			Steps:     steps,
			DiagEvery: 1 << 30,
		}
	}

	totalsOn := func(cfg Config, sink *cluster.Totals) Config {
		cfg.OnFinish = func(r *cluster.Rank) {
			tot := r.ConservedTotals() // collective: every rank participates
			if r.Comm.Rank() == 0 {
				*sink = tot
			}
		}
		return cfg
	}

	var ref cluster.Totals
	if _, err := Run(totalsOn(baseCfg(), &ref), nil); err != nil {
		t.Fatalf("inproc run: %v", err)
	}

	// The tcp run: two single-rank worlds in this process over loopback,
	// each driving its own sim.Run — exactly what two mpcf-sim processes do.
	worlds := connectTCPPair(t)
	var wg sync.WaitGroup
	var got cluster.Totals
	runErrs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			cfg := totalsOn(baseCfg(), &got)
			cfg.World = worlds[rank]
			_, runErrs[rank] = Run(cfg, nil)
		}(r)
	}
	wg.Wait()
	for r, err := range runErrs {
		if err != nil {
			t.Fatalf("rank %d run: %v", r, err)
		}
	}

	fields := []struct {
		name     string
		ref, got float64
	}{
		{"mass", ref.Mass, got.Mass},
		{"mom_x", ref.MomX, got.MomX},
		{"mom_y", ref.MomY, got.MomY},
		{"mom_z", ref.MomZ, got.MomZ},
		{"energy", ref.Energy, got.Energy},
		{"gamma_min", ref.GammaMin, got.GammaMin},
		{"gamma_max", ref.GammaMax, got.GammaMax},
		{"pi_min", ref.PiMin, got.PiMin},
		{"pi_max", ref.PiMax, got.PiMax},
		{"time", ref.Time, got.Time},
	}
	for _, f := range fields {
		if math.Float64bits(f.ref) != math.Float64bits(f.got) {
			t.Errorf("%s diverged across transports: inproc %016x (%v) vs tcp %016x (%v)",
				f.name, math.Float64bits(f.ref), f.ref, math.Float64bits(f.got), f.got)
		}
	}
	if ref.Step != got.Step {
		t.Errorf("step count diverged: inproc %d vs tcp %d", ref.Step, got.Step)
	}
}

// connectTCPPair connects two single-rank tcp worlds in this process over
// loopback, the way two mpcf-sim processes connect.
func connectTCPPair(t *testing.T) []*mpi.World {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord := ln.Addr().String()
	worlds := make([]*mpi.World, 2)
	connErrs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			cfg := mpi.TCPConfig{
				Rank: rank, Size: 2, Coord: coord,
				OnError: func(err error) { t.Errorf("rank %d wire: %v", rank, err) },
			}
			if rank == 0 {
				cfg.CoordListener = ln
			}
			worlds[rank], connErrs[rank] = mpi.ConnectTCP(cfg)
		}(r)
	}
	wg.Wait()
	for r, err := range connErrs {
		if err != nil {
			t.Fatalf("rank %d connect: %v", r, err)
		}
	}
	return worlds
}

// TestTCPRankZeroObserversMatchInproc: only rank 0 of a two-process tcp
// world carries telemetry (metrics and a step log) and a controller, and
// its step callback stops the run. Observers do not change a rank's
// collective schedule, so both ranks stop at the same boundary and end on
// totals bitwise equal to the in-process run of that many steps. A
// schedule that depends on observers hangs or diverges here; the deadline
// turns a hang into a failure.
func TestTCPRankZeroObserversMatchInproc(t *testing.T) {
	const steps, stopAfter = 6, 4
	var ref cluster.Totals
	if _, err := Run(controlCfg(stopAfter, &ref), nil); err != nil {
		t.Fatalf("inproc run: %v", err)
	}

	worlds := connectTCPPair(t)
	var got cluster.Totals
	var logBuf bytes.Buffer
	var sum Summary
	finalStep := make([]int, 2)
	runErrs := make([]error, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				cfg := controlCfg(steps, &got)
				cfg.World = worlds[rank]
				onFinish := cfg.OnFinish
				cfg.OnFinish = func(r *cluster.Rank) {
					finalStep[rank] = r.Step
					onFinish(r)
				}
				if rank != 0 {
					_, runErrs[rank] = Run(cfg, nil)
					return
				}
				ctl := NewController()
				cfg.Control = ctl
				cfg.Telemetry = &telemetry.Set{
					Metrics: telemetry.NewRegistry(),
					StepLog: telemetry.NewStepLogger(&logBuf),
				}
				sum, runErrs[rank] = Run(cfg, func(s StepInfo) {
					if s.Step == stopAfter {
						ctl.Stop("rank-0 callback")
					}
				})
			}(r)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("a run with rank-0-only observers did not finish")
	}
	for r, err := range runErrs {
		if err != nil {
			t.Fatalf("rank %d run: %v", r, err)
		}
	}
	if !sum.Stopped || sum.Steps != stopAfter {
		t.Errorf("rank 0 summary: stopped %v at step %d, want a stop at %d", sum.Stopped, sum.Steps, stopAfter)
	}
	if finalStep[0] != stopAfter || finalStep[1] != stopAfter {
		t.Errorf("ranks ended at steps %v, want both at %d", finalStep, stopAfter)
	}
	if n := strings.Count(logBuf.String(), "\n"); n != stopAfter {
		t.Errorf("rank-0 step log has %d records, want %d", n, stopAfter)
	}
	assertTotalsBitwise(t, "tcp with rank-0 observers vs inproc", ref, got)
}
