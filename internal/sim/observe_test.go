package sim

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cubism/internal/cluster"
	"cubism/internal/telemetry"
)

func observeCfg(dir string) (Config, *ObserveConfig) {
	obs := &ObserveConfig{
		TracePath:      filepath.Join(dir, "trace_merged.json"),
		ReportPath:     filepath.Join(dir, "imbalance.txt"),
		ReportJSONPath: filepath.Join(dir, "imbalance.json"),
	}
	cfg := Config{
		Cluster: cluster.Config{
			RankDims:  [3]int{2, 1, 1},
			BlockDims: [3]int{2, 1, 1},
			BlockSize: 8,
			Extent:    1,
			Workers:   2,
			CFL:       0.3,
			Init:      SodInit,
		},
		Steps:     3,
		DiagEvery: 1 << 30,
		Observe:   obs,
	}
	return cfg, obs
}

// checkMergedTrace asserts the artifact is one loadable trace with span
// tracks from every expected rank.
func checkMergedTrace(t *testing.T, path string, ranks int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("merged trace: %v", err)
	}
	var tf telemetry.TraceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("merged trace parse: %v", err)
	}
	spanRanks := map[int]bool{}
	stepStarts := map[int][]float64{} // rank -> "step" span start times, us
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" {
			spanRanks[ev.PID] = true
			if ev.Name == "step" {
				stepStarts[ev.PID] = append(stepStarts[ev.PID], ev.TS)
			}
		}
	}
	for r := 0; r < ranks; r++ {
		if !spanRanks[r] {
			t.Fatalf("merged trace has no spans from rank %d (got ranks %v)", r, spanRanks)
		}
	}
	// Clock alignment: the ranks advance in lockstep (each step ends in
	// collective reductions), so on the merged timeline the i-th "step"
	// span of every rank must start within one second of rank 0's —
	// unaligned per-process epochs would be apart by the process start
	// skew, and a sign error by twice the offset.
	for r := 1; r < ranks; r++ {
		if len(stepStarts[r]) != len(stepStarts[0]) {
			t.Fatalf("rank %d has %d step spans, rank 0 has %d",
				r, len(stepStarts[r]), len(stepStarts[0]))
		}
		for i := range stepStarts[0] {
			d := stepStarts[r][i] - stepStarts[0][i]
			if d < 0 {
				d = -d
			}
			if d > 1e6 { // 1s in us
				t.Fatalf("step %d starts %v us apart across ranks — spans not clock-aligned", i, d)
			}
		}
	}
}

func checkReport(t *testing.T, rep *telemetry.ImbalanceReport, ranks, steps int) {
	t.Helper()
	if rep == nil {
		t.Fatal("summary has no observatory report")
	}
	if rep.Ranks != ranks || rep.StepsObserved != steps {
		t.Fatalf("report covers %d ranks / %d steps, want %d / %d",
			rep.Ranks, rep.StepsObserved, ranks, steps)
	}
	for _, phase := range []string{"ghost_exchange", "halo_wait"} {
		st, ok := rep.Run[phase]
		if !ok {
			t.Fatalf("report missing phase %q: %v", phase, rep.Run)
		}
		if st.Ranks != ranks {
			t.Fatalf("phase %q reported by %d ranks, want %d", phase, st.Ranks, ranks)
		}
	}
	if _, ok := rep.Run["RHS"]; !ok {
		if _, ok := rep.Run["RHSUP"]; !ok {
			t.Fatalf("report missing compute phase: %v", rep.Run)
		}
	}
	if rep.Straggler < 0 || rep.Straggler >= ranks {
		t.Fatalf("straggler = %d out of range", rep.Straggler)
	}
}

// TestObservatoryInproc: a 2-rank in-process run must produce the merged
// trace and an imbalance report covering both ranks and all phases.
func TestObservatoryInproc(t *testing.T) {
	dir := t.TempDir()
	cfg, obs := observeCfg(dir)
	cfg.Telemetry = &telemetry.Set{
		Tracer:  telemetry.NewTracer(),
		Metrics: telemetry.NewRegistry(),
	}
	sum, err := Run(cfg, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	checkMergedTrace(t, obs.TracePath, 2)
	checkReport(t, sum.Observatory, 2, 3)
	if _, err := os.Stat(obs.ReportPath); err != nil {
		t.Fatalf("text report: %v", err)
	}
	var rep telemetry.ImbalanceReport
	data, err := os.ReadFile(obs.ReportJSONPath)
	if err != nil {
		t.Fatalf("json report: %v", err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("json report parse: %v", err)
	}
	if rep.StepsObserved != 3 {
		t.Fatalf("json report steps = %d, want 3", rep.StepsObserved)
	}
}

// TestStepLogMatchesObservatory: the step log and the observatory read one
// per-step phase measurement, so on a single rank every step's kernel_ms
// equals the report's per-step phase averages, key for key.
func TestStepLogMatchesObservatory(t *testing.T) {
	cfg, _ := observeCfg(t.TempDir())
	cfg.Cluster.RankDims = [3]int{1, 1, 1}
	cfg.Cluster.Pipeline = true
	var logBuf bytes.Buffer
	cfg.Telemetry = &telemetry.Set{StepLog: telemetry.NewStepLogger(&logBuf)}
	sum, err := Run(cfg, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	rep := sum.Observatory
	dec := json.NewDecoder(&logBuf)
	i := 0
	for ; dec.More(); i++ {
		var rec telemetry.StepRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("step log: %v", err)
		}
		if i >= len(rep.Steps) || rep.Steps[i].Step != rec.Step {
			t.Fatalf("step log record %d (step %d) has no report row", i, rec.Step)
		}
		phases := rep.Steps[i].Phases
		if len(rec.KernelMS) != len(phases) {
			t.Fatalf("step %d: kernel_ms %v, report phases %v", rec.Step, rec.KernelMS, phases)
		}
		for name, st := range phases {
			if ms, ok := rec.KernelMS[name]; !ok || ms != st.AvgMS {
				t.Fatalf("step %d phase %s: kernel_ms %v (present %v), report avg_ms %v",
					rec.Step, name, ms, ok, st.AvgMS)
			}
		}
		for _, name := range []string{"RHSUP", "ghost_exchange"} {
			if _, ok := rec.KernelMS[name]; !ok {
				t.Fatalf("step %d: kernel_ms lacks %s: %v", rec.Step, name, rec.KernelMS)
			}
		}
	}
	if i != cfg.Steps || rep.StepsObserved != cfg.Steps {
		t.Fatalf("step log has %d records, report %d steps, want %d",
			i, rep.StepsObserved, cfg.Steps)
	}
}

// TestObservatoryTCP: the distributed path — two single-rank worlds over
// loopback, each with its OWN tracer epoch and registry, exactly like two
// mpcf-sim processes. Rank 1's spans must be shipped, clock-aligned, and
// merged into rank 0's trace, and the report must include rank 1's counter
// snapshot.
func TestObservatoryTCP(t *testing.T) {
	dir := t.TempDir()
	worlds := ConnectLoopback(t, 2, nil, nil)

	sums := make([]Summary, 2)
	runErrs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			cfg, _ := observeCfg(dir)
			cfg.World = worlds[rank]
			cfg.Telemetry = &telemetry.Set{
				Tracer:  telemetry.NewTracer(), // per-process epoch, as in production
				Metrics: telemetry.NewRegistry(),
			}
			sums[rank], runErrs[rank] = Run(cfg, nil)
		}(r)
	}
	wg.Wait()
	for r, err := range runErrs {
		if err != nil {
			t.Fatalf("rank %d run: %v", r, err)
		}
	}

	checkMergedTrace(t, filepath.Join(dir, "trace_merged.json"), 2)
	checkReport(t, sums[0].Observatory, 2, 3)
	if sums[1].Observatory != nil {
		t.Fatal("non-root rank produced an observatory report")
	}
	// The distributed path ships counter snapshots from remote ranks.
	if sums[0].Observatory.Counters == nil || sums[0].Observatory.Counters[1] == nil {
		t.Fatalf("report missing rank 1 counter snapshot: %+v", sums[0].Observatory.Counters)
	}
}
