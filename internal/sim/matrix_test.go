package sim_test

// The bitwise-invariant matrix: the signature invariant of the solver —
// the same problem lands on the same bits whatever the rank count, layout,
// worker count, transport, wire faults, migrations, restarts and observers
// — proven by one harness over a pairwise covering array of those axes.
// Every row runs sim.Run on the production (pipelined) step and is compared
// bit for bit against one serial staged reference per case.

import (
	"io"
	"math"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cubism/internal/cluster"
	"cubism/internal/grid"
	"cubism/internal/mpi"
	"cubism/internal/scenario"
	"cubism/internal/sim"
	"cubism/internal/telemetry"
	"cubism/internal/transport/faulty"
)

const (
	matrixSteps = 4
	// restoreAt is the checkpoint step a restore row resumes from.
	restoreAt = 2
	// migrateAt is the step after which a migration row re-cuts its skewed
	// curve; it follows restoreAt, so a restored run migrates too.
	migrateAt = 3
)

// The axes of the matrix; a row picks one value per axis.
const (
	axCase = iota
	axRanks
	axLayout
	axWorkers
	axNet
	axMigrate
	axRestore
	axObserve
	nAxes
)

var axes = [nAxes][]string{
	axCase:    {"sod", "cloud"},
	axRanks:   {"1", "2", "4"},
	axLayout:  {"cartesian", "hilbert", "morton", "rowmajor"},
	axWorkers: {"1", "3"},
	axNet:     {"inproc", "tcp", "faults"},
	axMigrate: {"off", "on"},
	axRestore: {"off", "on"},
	axObserve: {"off", "on"},
}

var axisNames = [nAxes]string{"case", "ranks", "layout", "workers", "net", "migrate", "restore", "observe"}

type row [nAxes]string

// matrix is a pairwise covering array of the axes under row.valid:
// TestMatrixCoversPairs proves every allowed value pair appears in a row.
var matrix = []row{
	// case, ranks, layout, workers, net, migrate, restore, observe
	{"sod", "1", "cartesian", "3", "inproc", "off", "on", "on"},
	{"sod", "1", "morton", "3", "inproc", "off", "off", "on"},
	{"sod", "1", "rowmajor", "3", "inproc", "off", "off", "on"},
	{"sod", "2", "cartesian", "1", "tcp", "off", "off", "on"},
	{"sod", "2", "morton", "3", "faults", "off", "off", "off"},
	{"sod", "4", "hilbert", "3", "tcp", "on", "on", "off"},
	{"sod", "4", "morton", "3", "inproc", "on", "off", "on"},
	{"cloud", "1", "hilbert", "1", "inproc", "off", "on", "off"},
	{"cloud", "2", "hilbert", "3", "inproc", "on", "off", "on"},
	{"cloud", "2", "hilbert", "3", "faults", "on", "off", "on"},
	{"cloud", "2", "morton", "1", "tcp", "on", "on", "on"},
	{"cloud", "2", "rowmajor", "1", "faults", "on", "on", "off"},
	{"cloud", "4", "cartesian", "1", "faults", "off", "off", "off"},
	{"cloud", "4", "rowmajor", "1", "tcp", "off", "off", "on"},
}

// valid holds the axis constraints: a wire needs a peer, and a migration
// needs a second rank and a space-filling curve to re-cut.
func (r row) valid() bool {
	if r[axRanks] == "1" && (r[axNet] != "inproc" || r[axMigrate] == "on") {
		return false
	}
	return r[axMigrate] == "off" || r[axLayout] != "cartesian"
}

// name is the subtest name, e.g. cloud-r2-hilbert-w3-faults-migrate-observe
// (`make chaos` selects the wire rows by their tcp and faults elements).
func (r row) name() string {
	parts := []string{r[axCase], "r" + r[axRanks], r[axLayout], "w" + r[axWorkers], r[axNet]}
	for _, ax := range []int{axMigrate, axRestore, axObserve} {
		if r[ax] == "on" {
			parts = append(parts, axisNames[ax])
		}
	}
	return strings.Join(parts, "-")
}

func (r row) ranks() int {
	n, _ := strconv.Atoi(r[axRanks])
	return n
}

// decomp cuts one 4×2×2 box of 8³ blocks over each rank count; skew is the
// lopsided initial curve cut a migration row rebalances away from.
var decomp = map[string]struct {
	ranks, blocks [3]int
	skew          []int
}{
	"1": {[3]int{1, 1, 1}, [3]int{4, 2, 2}, nil},
	"2": {[3]int{2, 1, 1}, [3]int{2, 2, 2}, []int{0, 13, 16}},
	"4": {[3]int{2, 2, 1}, [3]int{2, 1, 2}, []int{0, 7, 10, 13, 16}},
}

var faultPlan = faulty.Plan{Seed: 2013, Drop: 0.06, Dup: 0.06, Reset: 0.01}

// outcome is what a run leaves behind for the bitwise comparison.
type outcome struct {
	blocks  map[int64][]float32 // final field by canonical linear block id
	totals  cluster.Totals
	metrics map[string]float64 // cloud observables
	moved   int                // blocks the forced migration moved
	faults  int64              // faults the wire injected
	// rank 0's registry and observatory report of the last leg
	reg    *telemetry.Registry
	report *telemetry.ImbalanceReport
}

// TestBitwiseMatrix runs every row of the matrix and compares it with the
// serial reference of its case: 1 rank, 1 worker, cartesian, in-process,
// on the staged step. The final field, the conserved totals with their
// step and time, and every cloud observable must match bit for bit.
func TestBitwiseMatrix(t *testing.T) {
	refs := map[string]*outcome{}
	for _, c := range axes[axCase] {
		ref := run(t, row{c, "1", "cartesian", "1", "inproc", "off", "off", "off"}, false)
		if len(ref.blocks) != 16 || (c == "cloud") != (len(ref.metrics) > 0) {
			t.Fatalf("%s reference: %d blocks, %d observables", c, len(ref.blocks), len(ref.metrics))
		}
		refs[c] = ref
	}
	for _, r := range matrix {
		t.Run(r.name(), func(t *testing.T) {
			t.Parallel()
			got := run(t, r, true)
			compare(t, refs[r[axCase]], got)
			if r[axMigrate] == "on" {
				if got.moved == 0 {
					t.Error("forced rebalance moved no blocks; migration path not exercised")
				}
				if r[axObserve] == "on" {
					checkLayoutMetrics(t, got.reg, got.moved, r.ranks())
				}
			}
			if r[axNet] == "faults" && got.faults == 0 {
				t.Errorf("plan %q injected no faults; the row proved nothing", faultPlan.String())
			}
			if r[axObserve] == "on" && got.report == nil {
				t.Error("observed run produced no observatory report")
			}
		})
	}
}

// TestMatrixCoversPairs: every row is valid, and every value pair that
// some valid row can hold appears in at least one row of the matrix.
func TestMatrixCoversPairs(t *testing.T) {
	type pair struct {
		a, b   int
		va, vb string
	}
	pairsOf := func(r row) []pair {
		var ps []pair
		for a := range nAxes {
			for b := a + 1; b < nAxes; b++ {
				ps = append(ps, pair{a, b, r[a], r[b]})
			}
		}
		return ps
	}
	covered := map[pair]bool{}
	for _, r := range matrix {
		for ax, v := range r {
			if !slices.Contains(axes[ax], v) {
				t.Errorf("row %s: %q is not a %s value", r.name(), v, axisNames[ax])
			}
		}
		if !r.valid() {
			t.Errorf("row %s breaks an axis constraint", r.name())
		}
		for _, p := range pairsOf(r) {
			covered[p] = true
		}
	}
	var walk func(r row, ax int)
	walk = func(r row, ax int) {
		if ax == nAxes {
			for _, p := range pairsOf(r) {
				if r.valid() && !covered[p] {
					t.Errorf("no row has %s=%s with %s=%s", axisNames[p.a], p.va, axisNames[p.b], p.vb)
					covered[p] = true // report each pair once
				}
			}
			return
		}
		for _, v := range axes[ax] {
			r[ax] = v
			walk(r, ax+1)
		}
	}
	walk(row{}, 0)
}

// run executes a row — both legs of a restore row, the second resuming
// from the first's checkpoint — and collects its outcome.
func run(t *testing.T, r row, pipeline bool) *outcome {
	t.Helper()
	d := decomp[r[axRanks]]
	workers, _ := strconv.Atoi(r[axWorkers])
	var cfg sim.Config
	var obs *scenario.Observer
	if r[axCase] == "cloud" {
		c, err := scenario.Build("cloud", scenario.Params{Ranks: d.ranks, Blocks: d.blocks,
			BlockSize: 8, Steps: matrixSteps, Workers: workers, DiagEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		cfg, obs = c.Config, scenario.NewObserver(c)
	} else {
		// Periodic on every face, so the wrap exchanges cross ranks too.
		cfg = sim.Config{
			Cluster: cluster.Config{RankDims: d.ranks, BlockDims: d.blocks, BlockSize: 8,
				Extent: 1, BC: grid.PeriodicBC(), Workers: workers, CFL: 0.3, Init: sim.SodInit},
			Steps:     matrixSteps,
			DiagEvery: 1,
		}
	}
	cfg.AuditEvery = 1
	cfg.Cluster.Pipeline = pipeline
	cfg.Cluster.Layout = r[axLayout]
	if r[axMigrate] == "on" {
		cfg.Cluster.LayoutCuts = d.skew
		cfg.ForceRebalanceStep = migrateAt
	}

	out := &outcome{blocks: map[int64][]float32{}}
	var mu sync.Mutex
	cfg.OnFinish = func(rk *cluster.Rank) {
		tot := rk.ConservedTotals() // collective: every rank takes part
		mu.Lock()
		defer mu.Unlock()
		for _, b := range rk.G.Blocks {
			out.blocks[rk.Layout.LinearID([3]int{b.X, b.Y, b.Z})] = append([]float32(nil), b.Data...)
		}
		if rk.Comm.Rank() == 0 {
			out.totals = tot
		}
	}
	onStep := func(s sim.StepInfo) { // rank 0 only
		if obs != nil {
			obs.OnStep(s)
		}
		if s.HasRebalance {
			out.moved = max(out.moved, s.Rebalance.Moved)
		}
	}

	legs := []sim.Config{cfg}
	if r[axRestore] == "on" {
		ckpt := filepath.Join(t.TempDir(), "matrix.ckp")
		first := cfg
		first.Steps, first.CheckpointEvery, first.CheckpointPath = restoreAt, restoreAt, ckpt
		first.OnFinish = nil
		cfg.RestorePath = ckpt
		legs = []sim.Config{first, cfg}
	}
	var hits atomic.Int64
	for _, leg := range legs {
		runLeg(t, r, leg, onStep, &hits, out)
	}
	out.faults = hits.Load()
	if obs != nil {
		out.metrics = obs.Metrics()
	}
	return out
}

// runLeg runs one sim.Run per process of the row's transport — a single
// one for an in-process world — with the row's observers attached, and
// keeps rank 0's registry and observatory report.
func runLeg(t *testing.T, r row, cfg sim.Config, onStep func(sim.StepInfo), hits *atomic.Int64, out *outcome) {
	t.Helper()
	worlds := []*mpi.World{nil} // nil: sim.Run builds the in-process world
	switch r[axNet] {
	case "tcp":
		worlds = sim.ConnectLoopback(t, r.ranks(), nil, nil)
	case "faults":
		worlds = sim.ConnectLoopback(t, r.ranks(), &faultPlan, hits)
	}
	dir := t.TempDir()
	sums := make([]sim.Summary, len(worlds))
	regs := make([]*telemetry.Registry, len(worlds))
	errs := make([]error, len(worlds))
	var wg sync.WaitGroup
	for p, w := range worlds {
		c := cfg
		c.World = w
		if r[axObserve] == "on" {
			regs[p] = telemetry.NewRegistry()
			c.Telemetry = &telemetry.Set{Tracer: telemetry.NewTracer(), Metrics: regs[p],
				StepLog: telemetry.NewStepLogger(io.Discard)}
			c.Control = sim.NewController()
			c.Observe = &sim.ObserveConfig{
				TracePath:  filepath.Join(dir, "trace.json"),
				ReportPath: filepath.Join(dir, "imbalance.txt"),
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[p], errs[p] = sim.Run(c, onStep)
		}()
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", p, err)
		}
	}
	out.reg, out.report = regs[0], sums[0].Observatory
}

// compare asserts a row's outcome carries the reference's bits.
func compare(t *testing.T, ref, got *outcome) {
	t.Helper()
	if len(got.blocks) != len(ref.blocks) {
		t.Fatalf("%d blocks, reference has %d", len(got.blocks), len(ref.blocks))
	}
	for id, want := range ref.blocks {
		have, ok := got.blocks[id]
		if !ok {
			t.Fatalf("block %d missing", id)
		}
		for i := range want {
			if math.Float32bits(have[i]) != math.Float32bits(want[i]) {
				t.Fatalf("block %d word %d: %08x, reference %08x",
					id, i, math.Float32bits(have[i]), math.Float32bits(want[i]))
			}
		}
	}
	sim.AssertTotalsBitwise(t, "totals", ref.totals, got.totals)
	if len(got.metrics) != len(ref.metrics) {
		t.Errorf("%d observables, reference has %d", len(got.metrics), len(ref.metrics))
	}
	for k, want := range ref.metrics {
		if have, ok := got.metrics[k]; !ok || math.Float64bits(have) != math.Float64bits(want) {
			t.Errorf("observable %s: %v, reference %v", k, have, want)
		}
	}
}

// checkLayoutMetrics asserts rank 0's registry followed the migration: the
// migration counter covers the moved blocks and the per-rank layout gauges
// still account for the whole box.
func checkLayoutMetrics(t *testing.T, reg *telemetry.Registry, moved, ranks int) {
	t.Helper()
	snap := reg.Snapshot()
	if v, ok := snap["mpcf_migrations_total"].(int64); !ok || v < int64(moved) {
		t.Errorf("mpcf_migrations_total = %v, want a series counting at least the %d moved blocks",
			snap["mpcf_migrations_total"], moved)
	}
	var series, blocks int
	for id, v := range snap {
		if strings.HasPrefix(id, "mpcf_layout_blocks{") {
			series++
			blocks += int(v.(float64))
		}
	}
	if series != ranks || blocks != 16 {
		t.Errorf("mpcf_layout_blocks: %d rank series holding %d blocks, want %d holding 16", series, blocks, ranks)
	}
}
