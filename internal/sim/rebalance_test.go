package sim

import (
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cubism/internal/cluster"
	"cubism/internal/mpi"
	"cubism/internal/telemetry"
	"cubism/internal/transport/faulty"
)

// rebalanceBase is the shared 2-rank problem for the migration keystones:
// a 4x2x2 global box (16 blocks) so skewed curve cuts leave real work to
// move between the ranks.
func rebalanceBase(steps int) Config {
	return Config{
		Cluster: cluster.Config{
			RankDims:  [3]int{2, 1, 1},
			BlockDims: [3]int{2, 2, 2},
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

func rebalanceTotalsOn(cfg Config, sink *cluster.Totals) Config {
	cfg.OnFinish = func(r *cluster.Rank) {
		tot := r.ConservedTotals()
		if r.Comm.Rank() == 0 {
			*sink = tot
		}
	}
	return cfg
}

// TestSimForcedRebalanceBitwise: a hilbert run that starts from skewed curve
// cuts and migrates blocks mid-run (via the sim-level ForceRebalanceStep
// hook) must produce conserved totals bitwise identical to the undisturbed
// cartesian run — the layout layer and live migration are invisible to the
// physics all the way up through the campaign driver. The migrating run has
// metrics switched on, so the same comparison also proves telemetry does not
// change the physics, and its registry must carry the layout series.
func TestSimForcedRebalanceBitwise(t *testing.T) {
	const steps = 5
	var ref cluster.Totals
	if _, err := Run(rebalanceTotalsOn(rebalanceBase(steps), &ref), nil); err != nil {
		t.Fatalf("cartesian run: %v", err)
	}

	var got cluster.Totals
	cfg := rebalanceTotalsOn(rebalanceBase(steps), &got)
	cfg.Cluster.Layout = "hilbert"
	cfg.Cluster.LayoutCuts = []int{0, 13, 16} // rank 0 starts with 13 of 16 blocks
	cfg.ForceRebalanceStep = 2
	cfg.Telemetry = &telemetry.Set{Metrics: telemetry.NewRegistry()}
	var moved int
	if _, err := Run(cfg, func(s StepInfo) {
		if s.HasRebalance && s.Rebalance.Moved > moved {
			moved = s.Rebalance.Moved
		}
	}); err != nil {
		t.Fatalf("hilbert run: %v", err)
	}
	if moved == 0 {
		t.Fatal("forced rebalance moved no blocks; migration path not exercised")
	}
	assertTotalsBitwise(t, "migrated hilbert vs cartesian", ref, got)

	snap := cfg.Telemetry.Metrics.Snapshot()
	if v, ok := snap["mpcf_migrations_total"].(int64); !ok || v < int64(moved) {
		t.Errorf("mpcf_migrations_total = %v, want a series counting at least the %d moved blocks",
			snap["mpcf_migrations_total"], moved)
	}
	var ranks, blocks int
	for id, v := range snap {
		if strings.HasPrefix(id, "mpcf_layout_blocks{") {
			ranks++
			blocks += int(v.(float64))
		}
	}
	if ranks != 2 || blocks != 16 {
		t.Errorf("mpcf_layout_blocks: %d rank series holding %d blocks, want 2 holding 16", ranks, blocks)
	}
}

// TestSimMigrationBitwiseOverTCPChaos is the migration fault drill: the
// skewed-cuts hilbert run rebalances mid-run while the tcp wire drops,
// duplicates and resets frames. The migration payloads ride the same
// reliability layer as the halos, so the final totals must still match the
// clean in-process cartesian run bit for bit.
func TestSimMigrationBitwiseOverTCPChaos(t *testing.T) {
	const steps = 5
	var ref cluster.Totals
	if _, err := Run(rebalanceTotalsOn(rebalanceBase(steps), &ref), nil); err != nil {
		t.Fatalf("inproc cartesian run: %v", err)
	}

	plan := faulty.Plan{Seed: 1311, Drop: 0.05, Dup: 0.05, Reset: 0.01}
	faults := &countingInjector{}
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
				HeartbeatInterval: 50 * time.Millisecond,
				RetransmitTimeout: 150 * time.Millisecond,
				PeerTimeout:       20 * time.Second,
				Fault:             &countingShared{faults, faulty.New(plan)},
				OnError:           func(err error) { t.Errorf("rank %d wire: %v", rank, err) },
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

	var got cluster.Totals
	var moved atomic.Int64
	runErrs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			cfg := rebalanceTotalsOn(rebalanceBase(steps), &got)
			cfg.Cluster.Layout = "hilbert"
			cfg.Cluster.LayoutCuts = []int{0, 13, 16}
			cfg.ForceRebalanceStep = 2
			cfg.World = worlds[rank]
			_, runErrs[rank] = Run(cfg, func(s StepInfo) {
				if s.HasRebalance && int64(s.Rebalance.Moved) > moved.Load() {
					moved.Store(int64(s.Rebalance.Moved))
				}
			})
		}(r)
	}
	wg.Wait()
	for r, err := range runErrs {
		if err != nil {
			t.Fatalf("rank %d run: %v", r, err)
		}
	}
	if moved.Load() == 0 {
		t.Fatal("forced rebalance moved no blocks over the wire")
	}
	assertTotalsBitwise(t, "chaos tcp migration vs inproc cartesian", ref, got)
	if faults.n.Load() == 0 {
		t.Fatalf("plan %q injected no faults; the drill proved nothing", plan.String())
	}
	t.Logf("faults injected: %d, blocks moved: %d", faults.n.Load(), moved.Load())
}
