package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cubism/internal/scenario"
	"cubism/internal/sim"
	"cubism/internal/telemetry"
)

// postSpec submits a spec over HTTP and returns the decoded status.
func postSpec(t *testing.T, base string, spec JobSpec, wantCode int) Status {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("submit returned %d, want %d", resp.StatusCode, wantCode)
	}
	var st Status
	if wantCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding status: %v", err)
		}
	}
	return st
}

// subscribe follows one job's event stream to completion and returns
// every event received, decoded and as its wire line.
func subscribe(t *testing.T, base, id string) ([]Event, []json.RawMessage) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Errorf("subscribe %s: %v", id, err)
		return nil, nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("subscribe %s: status %d", id, resp.StatusCode)
		return nil, nil
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("subscribe %s: content type %q", id, ct)
	}
	var evs []Event
	var lines []json.RawMessage
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Errorf("subscribe %s: bad event line %q: %v", id, sc.Text(), err)
			return evs, lines
		}
		evs = append(evs, e)
		lines = append(lines, bytes.Clone(sc.Bytes()))
	}
	return evs, lines
}

// legacyStepEvent is the service's former step-event shape, which held the
// physics subset of the step record under the same keys. A step event must
// still carry each of its keys.
type legacyStepEvent struct {
	Step   int     `json:"step"`
	T      float64 `json:"t"`
	DT     float64 `json:"dt"`
	WallMS float64 `json:"wall_ms,omitempty"`

	HasDiag       bool    `json:"has_diag,omitempty"`
	MaxPressure   float64 `json:"max_p,omitempty"`
	WallPressure  float64 `json:"wall_p,omitempty"`
	KineticEnergy float64 `json:"kinetic_energy,omitempty"`
	EquivRadius   float64 `json:"equiv_radius,omitempty"`
}

// checkStepEvents asserts a job's step events on the wire are the step
// records of a direct run of the same case: every legacy key present, the
// physics values bitwise equal, and the kernel times present.
func checkStepEvents(t *testing.T, id string, lines []json.RawMessage, direct []sim.StepInfo) {
	t.Helper()
	k := 0
	for _, line := range lines {
		var ev struct {
			Type string                     `json:"type"`
			Step map[string]json.RawMessage `json:"step"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type != "step" {
			continue
		}
		if k >= len(direct) {
			t.Fatalf("job %s: more step events than the direct run's %d steps", id, len(direct))
		}
		d := direct[k]
		k++
		legacy := legacyStepEvent{Step: d.Step, T: d.Time, DT: d.DT, WallMS: 1,
			HasDiag: d.HasDiag}
		if d.HasDiag {
			legacy.MaxPressure, legacy.WallPressure = d.Diag.MaxPressure, d.Diag.WallPressure
			legacy.KineticEnergy, legacy.EquivRadius = d.Diag.KineticEnergy, d.Diag.EquivRadius
		}
		b, _ := json.Marshal(legacy)
		var want map[string]json.RawMessage
		json.Unmarshal(b, &want)
		for key, v := range want {
			got, ok := ev.Step[key]
			if !ok {
				t.Fatalf("job %s step %d: key %q missing from %s", id, d.Step, key, line)
			}
			if key != "wall_ms" && !bytes.Equal(got, v) {
				t.Fatalf("job %s step %d: %q = %s, direct run %s", id, d.Step, key, got, v)
			}
		}
		var kernels map[string]float64
		if json.Unmarshal(ev.Step["kernel_ms"], &kernels) != nil || len(kernels) == 0 {
			t.Fatalf("job %s step %d: no kernel times in %s", id, d.Step, line)
		}
	}
	if k != len(direct) {
		t.Fatalf("job %s: %d step events, direct run %d steps", id, k, len(direct))
	}
}

// TestServiceEndToEnd is the acceptance drill: four tenants concurrently
// submit cloud, shockbubble and array jobs over the REST API (one tenant
// doubled up to exercise its running cap), every job streams its full
// event log to two concurrent subscribers, and each job's final
// observables and step records are bitwise identical to a direct
// scenario-engine run of the same parameters — the service adds
// orchestration, not physics.
func TestServiceEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestService(t, Config{Workers: 3, TenantRunning: 1, Registry: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	mk := func(tenant, scenarioName string, p SpecParams) JobSpec {
		return JobSpec{Scenario: scenarioName, Tenant: tenant, Params: p}
	}
	small := SpecParams{Blocks: [3]int{2, 2, 2}, BlockSize: 8, DiagEvery: 2, Workers: 2}
	cloudP := small
	cloudP.Steps, cloudP.Bubbles, cloudP.Seed = 6, 4, 7
	shockP := small
	shockP.Steps = 5
	arrayP := small
	arrayP.Steps, arrayP.Bubbles = 5, 2
	cloud2P := cloudP
	cloud2P.Seed = 11

	specs := []JobSpec{
		mk("tenant-0", "cloud", cloudP),
		mk("tenant-1", "shockbubble", shockP),
		mk("tenant-2", "array", arrayP),
		mk("tenant-3", "cloud", cloud2P),
		mk("tenant-0", "shockbubble", shockP), // doubles up tenant-0: must serialize
	}

	// Submit everything concurrently, as independent tenants would.
	ids := make([]string, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec JobSpec) {
			defer wg.Done()
			ids[i] = postSpec(t, ts.URL, spec, http.StatusCreated).ID
		}(i, spec)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Two concurrent subscribers per job, attached while the jobs run.
	streams := make([][]Event, 2*len(ids))
	lines := make([][]json.RawMessage, 2*len(ids))
	for i, id := range ids {
		for sub := 0; sub < 2; sub++ {
			wg.Add(1)
			go func(slot int, id string) {
				defer wg.Done()
				streams[slot], lines[slot] = subscribe(t, ts.URL, id)
			}(2*i+sub, id)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for i, id := range ids {
		a, b := streams[2*i], streams[2*i+1]
		if len(a) == 0 || len(b) == 0 {
			t.Fatalf("job %s: empty subscriber stream", id)
		}
		if len(a) != len(b) {
			t.Fatalf("job %s: subscribers saw %d vs %d events", id, len(a), len(b))
		}
		for k, e := range a {
			if e.Seq != k {
				t.Fatalf("job %s: stream gap at %d (seq %d)", id, k, e.Seq)
			}
		}
		last := a[len(a)-1]
		if last.Type != "state" || last.State != StateSucceeded {
			t.Fatalf("job %s: stream ends with %s/%s, want state/succeeded", id, last.Type, last.State)
		}
		steps, obsEvents := 0, 0
		for _, e := range a {
			switch e.Type {
			case "step":
				steps++
			case "observables":
				obsEvents++
			}
		}
		if steps != specs[i].Params.Steps {
			t.Fatalf("job %s: streamed %d step events, want %d", id, steps, specs[i].Params.Steps)
		}
		if obsEvents != 1 {
			t.Fatalf("job %s: %d observables events, want 1", id, obsEvents)
		}
	}

	// The per-tenant running cap held: tenant-0's second job started only
	// after its first finished, even with free worker slots. Concurrent
	// submission means either job may have been the first to run.
	j1, _ := s.Job(ids[0])
	j2, _ := s.Job(ids[4])
	s1, s2 := j1.Status(), j2.Status()
	if s2.Started.Before(*s1.Started) {
		s1, s2 = s2, s1
	}
	if s2.Started.Before(*s1.Finished) {
		t.Fatalf("tenant-0 ran two jobs concurrently: second started %v, first finished %v",
			s2.Started, s1.Finished)
	}

	// Bitwise-identical observables and step physics: the service-run
	// metric map and step events must match a direct scenario-engine run of
	// the same parameters bit for bit.
	for i, id := range ids {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/observables")
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("job %s observables: %v (status %v)", id, err, resp.Status)
		}
		var got map[string]float64
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatalf("job %s observables decode: %v", id, err)
		}
		resp.Body.Close()

		c, err := scenario.Build(specs[i].Scenario, specs[i].ScenarioParams())
		if err != nil {
			t.Fatal(err)
		}
		var direct []sim.StepInfo
		want, _, _, err := c.Run(func(st sim.StepInfo) { direct = append(direct, st) })
		if err != nil {
			t.Fatalf("direct run of %s: %v", specs[i].Scenario, err)
		}
		checkStepEvents(t, id, lines[2*i], direct)
		if len(got) != len(want) {
			t.Fatalf("job %s: observables keys %d vs direct %d\nservice: %v\ndirect:  %v",
				id, len(got), len(want), got, want)
		}
		for k, w := range want {
			g, ok := got[k]
			if !ok {
				t.Fatalf("job %s: observable %q missing", id, k)
			}
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("job %s: observable %q differs bitwise: service %v (%016x) vs direct %v (%016x)",
					id, k, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}

	// The metrics endpoint agrees: five terminal successes, nothing stuck.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	if !strings.Contains(text, `mpcf_service_jobs_done_total{state="succeeded"} 5`) {
		t.Fatalf("metrics missing success count:\n%s", text)
	}
	if !strings.Contains(text, "mpcf_service_jobs_queued 0") ||
		!strings.Contains(text, "mpcf_service_jobs_running 0") {
		t.Fatalf("metrics report stuck jobs:\n%s", text)
	}
	if s.Stuck() != 0 {
		t.Fatalf("%d stuck jobs after completion", s.Stuck())
	}
}

// TestHTTPErrorMapping: the admission and lookup failures map onto their
// HTTP status codes (400 invalid, 404 unknown, 429 caps, 409 re-cancel).
func TestHTTPErrorMapping(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, MaxQueue: 1, TenantQueued: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bad := JobSpec{Scenario: "warp", Tenant: "alice"}
	postSpec(t, ts.URL, bad, http.StatusBadRequest)

	resp, err := http.Get(ts.URL + "/v1/jobs/j-0000000000000000")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job returned %d, want 404", resp.StatusCode)
	}

	// Fill the only worker, then the one queue slot; the next submit must
	// bounce with 429 and a Retry-After hint.
	blocker := postSpec(t, ts.URL, slowSpec("blocker", ""), http.StatusCreated)
	jb, _ := s.Job(blocker.ID)
	waitState(t, jb, StateRunning, 15*time.Second)
	postSpec(t, ts.URL, fastSpec("carol", ""), http.StatusCreated)
	body, _ := json.Marshal(fastSpec("dave", ""))
	r429, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r429.Body.Close()
	if r429.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit returned %d, want 429", r429.StatusCode)
	}
	if r429.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Cancel over HTTP, then cancel again: 202 then 409.
	req, _ := http.NewRequest(http.MethodDelete,
		fmt.Sprintf("%s/v1/jobs/%s?reason=test", ts.URL, blocker.ID), nil)
	rc, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	rc.Body.Close()
	if rc.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel returned %d, want 202", rc.StatusCode)
	}
	waitTerminal(t, jb, 30*time.Second)
	rc2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	rc2.Body.Close()
	if rc2.StatusCode != http.StatusConflict {
		t.Fatalf("re-cancel returned %d, want 409", rc2.StatusCode)
	}

	// Scenario listing names all three registry cases.
	rs, err := http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	var scen struct {
		Scenarios []struct{ Name string } `json:"scenarios"`
	}
	json.NewDecoder(rs.Body).Decode(&scen)
	rs.Body.Close()
	if len(scen.Scenarios) != 3 {
		t.Fatalf("scenario listing has %d entries, want 3", len(scen.Scenarios))
	}
}
