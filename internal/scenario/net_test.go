package scenario

import (
	"math"
	"net"
	"reflect"
	"sync"
	"testing"

	"cubism/internal/cluster"
	"cubism/internal/mpi"
)

// netParams is the 2-rank cloud decomposition of the wire test: the 32³
// short-verify resolution split across two ranks in x, with per-step
// diagnostics so the wall-pressure and radius reductions cross the wire too.
func netParams() Params {
	return Params{
		Ranks:     [3]int{2, 1, 1},
		Blocks:    [3]int{1, 2, 2},
		BlockSize: 16,
		Steps:     3,
		Workers:   2,
		DiagEvery: 1,
	}
}

// runCloud builds the cloud case on world (nil: in-process) with the
// collective conserved-totals sample attached; sink is written on rank 0.
func runCloud(world *mpi.World, sink *cluster.Totals) (map[string]float64, error) {
	c, err := Build("cloud", netParams())
	if err != nil {
		return nil, err
	}
	c.Config.World = world
	c.Config.OnFinish = func(r *cluster.Rank) {
		tot := r.ConservedTotals() // collective: every rank participates
		if r.Comm.Rank() == 0 {
			*sink = tot
		}
	}
	m, _, _, err := c.Run(nil)
	return m, err
}

// connectLoopback builds a 2-rank tcp world over the loopback interface —
// exactly what two mpcf-sim processes do, compressed into one test process.
func connectLoopback(t *testing.T) [2]*mpi.World {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var worlds [2]*mpi.World
	var connErrs [2]error
	var wg sync.WaitGroup
	for rank := range 2 {
		cfg := mpi.TCPConfig{
			Rank: rank, Size: 2, Coord: ln.Addr().String(),
			OnError: func(err error) { t.Errorf("rank %d wire: %v", rank, err) },
		}
		if rank == 0 {
			cfg.CoordListener = ln
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

// TestCloudTCPBitwiseMatchesInproc extends the transport-correctness keystone
// to the headline workload: the seeded cloud-collapse scenario advanced on
// two ranks over the tcp wire must reproduce the in-process run bit for bit —
// every conserved-totals field and every Figure-5 observable the verify bands
// and the cloud bench record consume.
func TestCloudTCPBitwiseMatchesInproc(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rank scenario run")
	}
	var refTot cluster.Totals
	refMetrics, err := runCloud(nil, &refTot)
	if err != nil {
		t.Fatalf("inproc run: %v", err)
	}

	worlds := connectLoopback(t)
	var gotTot cluster.Totals
	var gotMetrics map[string]float64
	var runErrs [2]error
	var wg sync.WaitGroup
	for rank := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := runCloud(worlds[rank], &gotTot)
			runErrs[rank] = err
			if rank == 0 {
				gotMetrics = m
			}
		}()
	}
	wg.Wait()
	for r, err := range runErrs {
		if err != nil {
			t.Fatalf("rank %d run: %v", r, err)
		}
	}

	rv, gv := reflect.ValueOf(refTot), reflect.ValueOf(gotTot)
	for i := range rv.NumField() {
		a, b := rv.Field(i), gv.Field(i)
		same := a.Equal(b)
		if a.Kind() == reflect.Float64 {
			same = math.Float64bits(a.Float()) == math.Float64bits(b.Float())
		}
		if !same {
			t.Errorf("totals %s diverged: %v vs %v", rv.Type().Field(i).Name, a, b)
		}
	}
	if len(gotMetrics) != len(refMetrics) {
		t.Errorf("metric sets differ: %d vs %d keys", len(refMetrics), len(gotMetrics))
	}
	for k, rv := range refMetrics {
		gv, ok := gotMetrics[k]
		if !ok || math.Float64bits(rv) != math.Float64bits(gv) {
			t.Errorf("metric %s diverged: %v vs %v (present %v)", k, rv, gv, ok)
		}
	}
}
