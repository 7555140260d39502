package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cubism"
	"cubism/internal/scenario"
)

// equalScalars reports every exported scalar field (numbers, strings,
// bools and arrays of them, nested structs included) on which got and want
// differ, skipping the named fields. Funcs, pointers, slices and maps are
// not compared.
func equalScalars(t *testing.T, path string, got, want reflect.Value, skip map[string]bool) {
	t.Helper()
	for i := 0; i < got.NumField(); i++ {
		f := got.Type().Field(i)
		if !f.IsExported() || skip[f.Name] {
			continue
		}
		g, w := got.Field(i), want.Field(i)
		switch g.Kind() {
		case reflect.Struct:
			equalScalars(t, path+"."+f.Name, g, w, skip)
		case reflect.Func, reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface:
		default:
			if !reflect.DeepEqual(g.Interface(), w.Interface()) {
				t.Errorf("%s.%s = %v, want %v", path, f.Name, g.Interface(), w.Interface())
			}
		}
	}
}

// TestScenarioRunsItsOwnConfig: -scenario NAME runs the registry case's own
// Config — its decomposition, boundary conditions, wall, diagnostics and
// audit cadences and its initial condition — with only the CLI's output and
// checkpoint flags overlaid, so a fleet job observes what the same spec run
// in process observes.
func TestScenarioRunsItsOwnConfig(t *testing.T) {
	for _, name := range []string{"cloud", "shockbubble", "array"} {
		o, err := parse([]string{"-scenario", name, "-blocks", "2,2,2", "-n", "8", "-steps", "3"})
		if err != nil {
			t.Fatal(err)
		}
		c, err := scenario.Build(name, scenario.Params{Ranks: [3]int{1, 1, 1},
			Blocks: [3]int{2, 2, 2}, BlockSize: 8, Steps: 3, Seed: 42, DiagEvery: 10})
		if err != nil {
			t.Fatal(err)
		}
		if c.Config.AuditEvery == 0 {
			t.Fatalf("%s: the scenario does not audit; the check below proves nothing", name)
		}
		overlays := map[string]bool{"DumpDir": true, "Encoder": true, "CheckpointPath": true}
		equalScalars(t, name, reflect.ValueOf(o.cfg), reflect.ValueOf(c.Config), overlays)
		for _, x := range []float64{0.1, 0.5, 0.55} {
			if got, want := o.cfg.Cluster.Init(x, 0.5, x), c.Config.Cluster.Init(x, 0.5, x); got != want {
				t.Errorf("%s: Init(%g, 0.5, %g) = %+v, want the scenario's %+v", name, x, x, got, want)
			}
		}
		if o.scn == nil || o.scn.Name != name {
			t.Errorf("%s: the parsed command line carries no scenario case for -observables", name)
		}
	}
}

// TestCaseRunsProductionDefaults: a -case run is one rank at CFL 0.3 on the
// pipelined step, like every production run.
func TestCaseRunsProductionDefaults(t *testing.T) {
	o, err := parse([]string{"-case", "sod"})
	if err != nil {
		t.Fatal(err)
	}
	cc := o.cfg.Cluster
	if cc.RankDims != [3]int{1, 1, 1} || cc.CFL != 0.3 || !cc.Pipeline || cc.Init == nil {
		t.Errorf("-case sod: ranks %v, CFL %g, pipeline %v, init set %v; want 1,1,1, 0.3, true, true",
			cc.RankDims, cc.CFL, cc.Pipeline, cc.Init != nil)
	}
	if o.cfg.OnFinish != nil {
		t.Error("OnFinish installed without -sums")
	}
}

// TestSumsWrittenOnFinish: -sums installs the OnFinish hook that writes the
// final conserved totals on rank 0.
func TestSumsWrittenOnFinish(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.sums")
	o, err := parse([]string{"-case", "sod", "-blocks", "1,1,1", "-n", "8", "-steps", "2",
		"-workers", "1", "-sums", path})
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.OnFinish == nil {
		t.Fatal("-sums installed no OnFinish hook")
	}
	if _, err := cubism.Run(o.cfg, nil); err != nil {
		t.Fatal(err)
	}
	if o.sumsErr != nil {
		t.Fatal(o.sumsErr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(string(data)), "\n"); len(lines) != 11 ||
		!strings.HasPrefix(lines[0], "mass ") || lines[10] != "nonfinite 0" {
		t.Errorf("checksum file:\n%s", data)
	}
}

// TestFrameLogHoldsOneRun: two runs given the same -frame-log path leave
// only the second run's records; the log is truncated when the run starts,
// as -step-log is.
func TestFrameLogHoldsOneRun(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "frames.jsonl")
	run := func(steps string) []cubism.FrameRecord {
		o, err := parse([]string{"-case", "sod", "-blocks", "1,1,1", "-n", "8", "-steps", steps,
			"-workers", "1", "-quiet", "-diag-every", "0", "-dump-every", "1", "-dump-dir", dir, "-frame-log", path})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cubism.Run(o.cfg, nil); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var recs []cubism.FrameRecord
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			var r cubism.FrameRecord
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("frame log line %q: %v", line, err)
			}
			recs = append(recs, r)
		}
		return recs
	}
	first := run("3")
	second := run("2")
	if len(first) == 0 || len(second) >= len(first) {
		t.Fatalf("first run logged %d frames, second %d; want the second run's frames alone, fewer than the first's",
			len(first), len(second))
	}
	for _, r := range second {
		if r.Step > 2 {
			t.Errorf("frame of step %d survives from the first run", r.Step)
		}
	}
}
