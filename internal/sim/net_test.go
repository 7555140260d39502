package sim

import (
	"bytes"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cubism/internal/cluster"
	"cubism/internal/mpi"
	"cubism/internal/telemetry"
	"cubism/internal/transport"
	"cubism/internal/transport/faulty"
)

// TestTCPBitwiseMatchesInproc is the transport-correctness keystone: the
// same 2-rank Sod problem advanced on the pipelined step over the tcp wire
// must produce conserved totals bitwise identical to the in-process
// transport. Any divergence — a reordered reduction, a corrupted halo byte,
// a dropped frame — shows up as a flipped float64 bit here.
func TestTCPBitwiseMatchesInproc(t *testing.T) {
	const steps = 3
	pipelined := func(sink *cluster.Totals) Config {
		cfg := controlCfg(steps, sink)
		cfg.Cluster.Pipeline = true
		return cfg
	}
	var ref cluster.Totals
	if _, err := Run(pipelined(&ref), nil); err != nil {
		t.Fatalf("inproc run: %v", err)
	}

	worlds := ConnectLoopback(t, 2, nil, nil)
	var wg sync.WaitGroup
	var got cluster.Totals
	runErrs := make([]error, 2)
	for rank := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := pipelined(&got)
			cfg.World = worlds[rank]
			_, runErrs[rank] = Run(cfg, nil)
		}()
	}
	wg.Wait()
	for r, err := range runErrs {
		if err != nil {
			t.Fatalf("rank %d run: %v", r, err)
		}
	}
	AssertTotalsBitwise(t, "tcp vs inproc", ref, got)
}

// ConnectLoopback connects n single-rank tcp worlds in this process over
// loopback, the way n mpcf-sim processes connect. A non-nil plan gives
// every rank its own seeded fault injector and short reliability timers;
// hits then counts the faults injected across all ranks. It is exported
// for the bitwise matrix in package sim_test.
func ConnectLoopback(t testing.TB, n int, plan *faulty.Plan, hits *atomic.Int64) []*mpi.World {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	worlds := make([]*mpi.World, n)
	connErrs := make([]error, n)
	var wg sync.WaitGroup
	for rank := range n {
		cfg := mpi.TCPConfig{
			Rank: rank, Size: n, Coord: ln.Addr().String(),
			OnError: func(err error) { t.Errorf("rank %d wire: %v", rank, err) },
		}
		if rank == 0 {
			cfg.CoordListener = ln
		}
		if plan != nil {
			cfg.HeartbeatInterval = 50 * time.Millisecond
			cfg.RetransmitTimeout = 150 * time.Millisecond
			cfg.PeerTimeout = 20 * time.Second
			cfg.Fault = &countingFaults{inner: faulty.New(*plan), hits: hits}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			worlds[rank], connErrs[rank] = mpi.ConnectTCP(cfg)
		}()
	}
	wg.Wait()
	for r, err := range connErrs {
		if err != nil {
			t.Fatalf("rank %d connect: %v", r, err)
		}
	}
	return worlds
}

// countingFaults gives each rank its own deterministic injector while
// funneling all ranks' hits into one shared counter, proving a chaos run
// actually injected faults.
type countingFaults struct {
	inner transport.FaultInjector
	hits  *atomic.Int64
}

func (c *countingFaults) Outgoing(dst, tag, size int) transport.FaultDecision {
	d := c.inner.Outgoing(dst, tag, size)
	if d.Action != transport.FaultPass {
		c.hits.Add(1)
	}
	return d
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

	worlds := ConnectLoopback(t, 2, nil, nil)
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
	AssertTotalsBitwise(t, "tcp with rank-0 observers vs inproc", ref, got)
}
