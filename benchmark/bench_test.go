package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"
)

// smoke shrinks a workload to 8³ blocks and two timed operations, keeping
// its decomposition and transport.
func smoke(sp spec) spec {
	sp.n = 8
	sp.steps, sp.diagEvery, sp.auditEvery = 3, 1, 2 // one warm-up, one plain and one audited step
	sp.window = 0                                   // every step is a latency sample
	sp.warmSteps, sp.cycles = 1, 2
	sp.jobs, sp.jobSteps = 2, 2
	sp.reference = false
	return sp
}

type manifest struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []manifestMetric `json:"end_to_end"`
	PerLayer  []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatches holds BENCHMARK.json and the benchmark's own
// declarations in step: same workloads, same metrics, same units.
func TestManifestMatches(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(m.Workloads), len(specs))
	}
	for _, w := range m.Workloads {
		if _, ok := specs[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(kind string, got []manifestMetric, want []decl) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, d)
			}
			if !name.MatchString(d.name) {
				t.Errorf("%s: bad metric name %q", kind, d.name)
			}
			if seen[d.name] {
				t.Errorf("%s: metric %q declared twice", kind, d.name)
			}
			seen[d.name] = true
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
	for _, g := range m.EndToEnd {
		if g.Bound <= 0 || g.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", g.Name, g.Bound)
		}
	}
}

// TestSmoke runs every workload at a tiny size in both modes: each must emit
// every declared metric with a finite value, pass its own correctness
// checks, and leave no goroutine behind.
func TestSmoke(t *testing.T) {
	ref, err := loadReference("")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames() {
		for _, mode := range []struct {
			name  string
			decls []decl
			run   func(spec, *env) (values, error)
		}{{"end_to_end", endToEnd, runEndToEnd}, {"traced", perLayer, runTraced}} {
			t.Run(name+"/"+mode.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				e := &env{
					seed: defaultSeed, rounds: 1, outDir: t.TempDir(), chk: &checks{},
					info: io.Discard, ref: ref, probeScale: 0.02,
				}
				v, err := mode.run(smoke(specs[name]), e)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := emit(mode.decls, v); err != nil {
					t.Error(err)
				}
				if e.chk.attempted == 0 || e.chk.failed != 0 {
					t.Errorf("%d of %d operations failed: %v", e.chk.failed, e.chk.attempted, e.chk.msgs)
				}
				e.cleanup()
				if left, _ := os.ReadDir(e.outDir); mode.name == "end_to_end" && len(left) != 0 {
					t.Errorf("scratch files left behind: %v", left)
				}
				// Pool workers and connection pumps exit just after their
				// owner's Close returns; give them a moment.
				deadline := time.Now().Add(2 * time.Second)
				for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
					time.Sleep(10 * time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > base {
					buf := make([]byte, 1<<16)
					t.Errorf("%d goroutines before, %d after:\n%s", base, n, buf[:runtime.Stack(buf, true)])
				}
			})
		}
	}
}

// TestResultLine drives the command itself: the last line of standard output
// is the result object with exactly the contract's keys, and a bad workload
// name is refused.
func TestResultLine(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, io.Discard); code == 0 {
		t.Error("unknown workload accepted")
	}
	old := specs["service_jobs"]
	specs["service_jobs"] = smoke(old)
	defer func() { specs["service_jobs"] = old }()
	out.Reset()
	code := run([]string{"--workload", "service_jobs", "--seed", "7", "--seconds", "1", "--trace", "0", "--out", t.TempDir()}, &out, io.Discard)
	if code != 0 {
		t.Fatalf("exit code %d\n%s", code, out.String())
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res map[string]json.RawMessage
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(res) != 4 {
		t.Errorf("result line has %d keys, want 4", len(res))
	}
}
