package sim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"cubism/internal/cluster"
	"cubism/internal/grid"
	"cubism/internal/telemetry"
)

// TestRunWithTelemetry drives a small multi-rank campaign with every sink
// attached and checks the full contract: solver-phase spans on every rank's
// trace track, one JSONL record per step, and the Prometheus exposition
// carrying the step-latency histogram and per-kernel gauges. It runs both
// execution models: the staged step records separate RHS and UP phases and
// one halo_wait per stage, the pipelined production step one fused RHSUP
// phase per stage fed by per-link halo_install spans.
func TestRunWithTelemetry(t *testing.T) {
	const steps = 4
	for _, leg := range []struct {
		name     string
		pipeline bool
		kernels  []string       // step kernels; the first carries the RHS
		spans    map[string]int // model-specific spans and their minimum count
	}{
		{"Staged", false, []string{"RHS", "UP"}, map[string]int{
			"RHS":        3 * steps, // three RK stages
			"UP":         3 * steps,
			"halo_wait":  3 * steps,
			"RHS.worker": 1,
		}},
		{"Pipelined", true, []string{"RHSUP"}, map[string]int{
			"RHSUP":        3 * steps,
			"halo_install": 3 * steps, // two links per rank per stage
			"RHSUP.worker": 1,
		}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			testRunWithTelemetry(t, steps, leg.pipeline, leg.kernels, leg.spans)
		})
	}
}

func testRunWithTelemetry(t *testing.T, steps int, pipeline bool, kernels []string, spans map[string]int) {
	const nRanks = 2
	tel := &telemetry.Set{
		Tracer:  telemetry.NewTracer(),
		Metrics: telemetry.NewRegistry(),
	}
	var logBuf bytes.Buffer
	tel.StepLog = telemetry.NewStepLogger(&logBuf)

	cfg := Config{
		Cluster: cluster.Config{
			RankDims:  [3]int{nRanks, 1, 1},
			BlockDims: [3]int{2, 1, 1},
			BlockSize: 8,
			Extent:    1,
			BC:        grid.PeriodicBC(),
			Workers:   2,
			CFL:       0.3,
			Pipeline:  pipeline,
			Init:      SodInit,
		},
		Steps:     steps,
		DumpEvery: 2,
		DumpDir:   t.TempDir(),
		DiagEvery: 2,
		Telemetry: tel,
	}
	summary, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if summary.Steps != steps {
		t.Fatalf("ran %d steps, want %d", summary.Steps, steps)
	}

	// Trace: the model's phase spans plus DT, ghost-exchange, step, dump
	// and fold spans on every rank.
	trace := tel.Tracer.Export()
	type key struct {
		pid  int
		name string
	}
	have := map[key]int{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" {
			have[key{ev.PID, ev.Name}]++
		}
	}
	want := map[string]int{
		"step":           steps,
		"DT":             steps,
		"ghost_exchange": 3 * steps,
		"dump":           2 * 2, // two quantities, every other step
		"fold":           steps, // one end-of-step fold per step
		"fwt_decimate":   1,
	}
	for name, min := range spans {
		want[name] = min
	}
	for rank := 0; rank < nRanks; rank++ {
		for name, min := range want {
			if have[key{rank, name}] < min {
				t.Errorf("rank %d: %d %q spans, want >= %d", rank, have[key{rank, name}], name, min)
			}
		}
	}

	// Step log: one valid record per step with kernel timings.
	rhs := kernels[0]
	sc := bufio.NewScanner(&logBuf)
	var recs []telemetry.StepRecord
	for sc.Scan() {
		var r telemetry.StepRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad step-log line: %v", err)
		}
		recs = append(recs, r)
	}
	if len(recs) != steps {
		t.Fatalf("step log has %d records, want %d", len(recs), steps)
	}
	for i, r := range recs {
		if r.Step != i+1 || r.DT <= 0 || r.WallMS <= 0 {
			t.Errorf("record %d malformed: %+v", i, r)
		}
		if r.KernelMS[rhs] <= 0 {
			t.Errorf("record %d missing %s kernel time: %v", i, rhs, r.KernelMS)
		}
	}
	if recs[1].DumpRates["p"] <= 0 || recs[1].DumpMBps <= 0 {
		t.Errorf("dump step record missing rates/bitrate: %+v", recs[1])
	}

	// Metrics: step-latency histogram and per-kernel gauges on /metrics.
	var expo bytes.Buffer
	tel.Metrics.WritePrometheus(&expo)
	out := expo.String()
	wantMetrics := []string{
		"# TYPE mpcf_step_latency_seconds histogram",
		`mpcf_step_latency_seconds_bucket{le="+Inf"} 4`,
		"mpcf_step_latency_seconds_count 4",
		"mpcf_steps_total 4",
		`mpcf_kernel_gflops{kernel="DT"}`,
		`mpcf_kernel_flop_per_byte{kernel="` + rhs + `"}`,
		"mpcf_step_imbalance",
		"mpcf_dump_mbps",
	}
	for _, k := range kernels {
		wantMetrics = append(wantMetrics, `mpcf_kernel_gflops{kernel="`+k+`"}`)
	}
	for _, want := range wantMetrics {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics exposition missing %q", want)
		}
	}

	// Summary carries machine-readable per-kernel stats.
	if summary.Kernels[rhs].N != 3*steps {
		t.Errorf("summary %s calls = %d, want %d", rhs, summary.Kernels[rhs].N, 3*steps)
	}
}

// TestRunWithoutTelemetry pins the disabled path on a single rank: no
// telemetry config, a measured WallMS, and an imbalance of exactly zero
// (one rank is its own maximum and average).
func TestRunWithoutTelemetry(t *testing.T) {
	cfg := Config{
		Cluster: cluster.Config{
			RankDims:  [3]int{1, 1, 1},
			BlockDims: [3]int{2, 2, 2},
			BlockSize: 8,
			Extent:    1,
			Workers:   2,
			CFL:       0.3,
			Init:      SodInit,
		},
		Steps:     2,
		DiagEvery: 1 << 30,
	}
	var last StepInfo
	if _, err := Run(cfg, func(s StepInfo) { last = s }); err != nil {
		t.Fatal(err)
	}
	if last.WallMS <= 0 {
		t.Error("WallMS should be measured even without telemetry")
	}
	if last.Imbalance != 0 {
		t.Error("imbalance must stay zero on a single rank")
	}

	// Two ranks, still without telemetry: the end-of-step fold computes
	// the imbalance every step, and max/avg − 1 over two ranks lies in
	// [0, 1]. Two ranks timing identical steps to the nanosecond on every
	// step is not a case that occurs.
	cfg.Cluster.RankDims = [3]int{2, 1, 1}
	cfg.Cluster.BlockDims = [3]int{1, 2, 2}
	cfg.Steps = 3
	var imb []float64
	if _, err := Run(cfg, func(s StepInfo) { imb = append(imb, s.Imbalance) }); err != nil {
		t.Fatal(err)
	}
	positive := false
	for _, v := range imb {
		if v < 0 || v > 1 {
			t.Errorf("2-rank imbalance %v outside [0, 1]", v)
		}
		positive = positive || v > 0
	}
	if !positive {
		t.Errorf("2-rank imbalance never computed without telemetry: %v", imb)
	}
}

// TestCollectiveScheduleIgnoresObservers pins the per-step collective
// schedule of a 2-rank run at fixed diagnostics and audit cadences: two
// collectives per step (the DT reduction carrying the stop flag, and the
// end-of-step fold), the same count and bitwise-equal totals whatever
// Telemetry and Control are set to.
func TestCollectiveScheduleIgnoresObservers(t *testing.T) {
	const steps = 5
	type result struct {
		colls [2]uint64
		tot   cluster.Totals
	}
	run := func(tel, ctl bool) result {
		var res result
		cfg := controlCfg(steps, nil)
		cfg.DiagEvery, cfg.AuditEvery = 2, 3
		cfg.OnFinish = func(r *cluster.Rank) {
			res.colls[r.Comm.Rank()] = r.Comm.Collectives()
			tot := r.ConservedTotals()
			if r.Comm.Rank() == 0 {
				res.tot = tot
			}
		}
		if tel {
			cfg.Telemetry = &telemetry.Set{
				Tracer:  telemetry.NewTracer(),
				Metrics: telemetry.NewRegistry(),
				StepLog: telemetry.NewStepLogger(io.Discard),
			}
		}
		if ctl {
			cfg.Control = NewController()
		}
		if _, err := Run(cfg, nil); err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(false, false)
	for _, c := range []struct {
		name     string
		tel, ctl bool
	}{{"none", false, false}, {"telemetry", true, false}, {"control", false, true}, {"both", true, true}} {
		got := run(c.tel, c.ctl)
		for rank, n := range got.colls {
			if n != 2*steps {
				t.Errorf("%s: rank %d issued %d collectives in %d steps, want 2 per step",
					c.name, rank, n, steps)
			}
		}
		AssertTotalsBitwise(t, c.name, ref.tot, got.tot)
	}
}
