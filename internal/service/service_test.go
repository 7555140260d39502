package service

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"

	"cubism/internal/dump"
)

// TestMain doubles as the fake mpcf-sim of the fleet tests (the helper-
// process trick of the launch package): when MPCF_SERVICE_FAKE_SIM is set
// this process parses the fleet flags, plays one rank, and exits.
func TestMain(m *testing.M) {
	if os.Getenv("MPCF_SERVICE_FAKE_SIM") != "" {
		fakeSim()
		return
	}
	os.Exit(m.Run())
}

// fakeFramePayload is the frame body the fake rank-0 sim logs; the fleet
// frame-tail test asserts it survives the JSONL round trip untouched.
func fakeFramePayload() []byte { return []byte("\x00\x01frame-bytes\xff\xfe") }

// argVal extracts the value of a "-flag value" pair from os.Args.
func argVal(name string) string {
	for i, a := range os.Args {
		if (a == "-"+name || a == "--"+name) && i+1 < len(os.Args) {
			return os.Args[i+1]
		}
	}
	return ""
}

// fakeSim emulates one mpcf-sim rank: a rank given -step-log writes the
// structured step log, rank 0 the observables artifact and the frame log;
// hang mode blocks until SIGINT and exits 130 like a graceful boundary
// stop, and MPCF_SERVICE_FAKE_DELAY holds the writes back by a duration.
func fakeSim() {
	rank, _ := strconv.Atoi(argVal("rank"))
	if os.Getenv("MPCF_SERVICE_FAKE_HANG") != "" {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
		os.Exit(130)
	}
	if d, err := time.ParseDuration(os.Getenv("MPCF_SERVICE_FAKE_DELAY")); err == nil {
		time.Sleep(d)
	}
	// Like mpcf-sim, any rank given a -step-log truncates and writes one.
	if p := argVal("step-log"); p != "" {
		f, err := os.Create(p)
		if err == nil {
			for i := 1; i <= 3; i++ {
				fmt.Fprintf(f, `{"step":%d,"t":%g,"dt":0.001,"has_diag":true,"max_p":%g}`+"\n",
					i, float64(i)*0.001, 100.0*float64(i))
			}
			f.Close()
		}
	}
	if rank == 0 {
		if p := argVal("observables"); p != "" {
			os.WriteFile(p, []byte(`{"peak_amp": 2.5, "non_finite": 0}`+"\n"), 0o644)
		}
		if p := argVal("frame-log"); p != "" {
			// mpcf-sim appends to the frame log.
			rec, _ := json.Marshal(dump.Frame{Name: "p_step000002.mpcf", Step: 2,
				Quantity: "p", Time: 0.002, Data: fakeFramePayload()}.Record())
			if f, err := os.OpenFile(p, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err == nil {
				f.Write(append(rec, '\n'))
				f.Close()
			}
		}
		fmt.Println("fake rank 0 done")
	}
	os.Exit(0)
}

// fastSpec is a sub-second real shockbubble case.
func fastSpec(tenant, nonce string) JobSpec {
	return JobSpec{
		Scenario: "shockbubble",
		Tenant:   tenant,
		Nonce:    nonce,
		Params: SpecParams{
			Blocks: [3]int{2, 2, 2}, BlockSize: 8, Steps: 4, DiagEvery: 2, Workers: 2,
		},
	}
}

// slowSpec runs long enough to still be running while a test pokes at the
// queue behind it (and is ended by Cancel/Drain, never by completion).
func slowSpec(tenant, nonce string) JobSpec {
	s := fastSpec(tenant, nonce)
	s.Params.Steps = 20000
	s.Params.DiagEvery = 100000
	return s
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func waitState(t *testing.T, j *Job, want JobState, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st := j.State()
		if st == want {
			return
		}
		if st.Terminal() && !want.Terminal() {
			t.Fatalf("job %s reached terminal %s while waiting for %s", j.ID, st, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach %s within %v (state %s)", j.ID, want, timeout, j.State())
}

func waitTerminal(t *testing.T, j *Job, timeout time.Duration) JobState {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if st := j.State(); st.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish within %v (state %s)", j.ID, timeout, j.State())
	return ""
}

func TestSubmitIdempotent(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	spec := fastSpec("alice", "")
	j1, created, err := s.Submit(spec)
	if err != nil || !created {
		t.Fatalf("first submit: created=%v err=%v", created, err)
	}
	j2, created, err := s.Submit(spec)
	if err != nil || created {
		t.Fatalf("resubmit: created=%v err=%v", created, err)
	}
	if j1 != j2 {
		t.Fatalf("resubmitting an identical spec made a new job: %s vs %s", j1.ID, j2.ID)
	}
	if st := waitTerminal(t, j1, 30*time.Second); st != StateSucceeded {
		t.Fatalf("job ended %s, want succeeded", st)
	}
	if j1.Observables() == nil {
		t.Fatal("succeeded job has no observables")
	}
	if _, err := os.Stat(filepath.Join(j1.Dir, "observables.json")); err != nil {
		t.Fatalf("observables artifact: %v", err)
	}
}

// TestPerTenantRunningCap: with two warm workers but a per-tenant running
// cap of one, a tenant's second job must wait for its first, while another
// tenant's job is free to use the second worker slot.
func TestPerTenantRunningCap(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, TenantRunning: 1})
	a1, _, err := s.Submit(fastSpec("alice", "1"))
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := s.Submit(fastSpec("alice", "2"))
	if err != nil {
		t.Fatal(err)
	}
	b1, _, err := s.Submit(fastSpec("bob", "1"))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Job{a1, a2, b1} {
		if st := waitTerminal(t, j, 30*time.Second); st != StateSucceeded {
			t.Fatalf("job %s ended %s", j.ID, st)
		}
	}
	// The cap shows in the timeline: alice's second job started only after
	// her first finished.
	s1, s2 := a1.Status(), a2.Status()
	if s2.Started.Before(*s1.Finished) {
		t.Fatalf("tenant running cap violated: a2 started %v before a1 finished %v",
			s2.Started, s1.Finished)
	}
}

// TestAdmissionControl: the bounded queue and the per-tenant queued cap
// both reject at submit time while a blocker occupies the only worker.
func TestAdmissionControl(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, MaxQueue: 2, TenantQueued: 1})
	blocker, _, err := s.Submit(slowSpec("blocker", ""))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning, 15*time.Second)

	if _, _, err := s.Submit(fastSpec("carol", "")); err != nil {
		t.Fatalf("first queued job rejected: %v", err)
	}
	// Carol is at her queued cap of one.
	if _, _, err := s.Submit(fastSpec("carol", "2")); err != ErrTenantQueued {
		t.Fatalf("tenant queued cap: got %v, want ErrTenantQueued", err)
	}
	// Dave still fits (queue depth 2)...
	if _, _, err := s.Submit(fastSpec("dave", "")); err != nil {
		t.Fatalf("second queued job rejected: %v", err)
	}
	// ...but the global queue is now full for anyone.
	if _, _, err := s.Submit(fastSpec("erin", "")); err != ErrQueueFull {
		t.Fatalf("bounded queue: got %v, want ErrQueueFull", err)
	}
	if err := s.Cancel(blocker.ID, "test done"); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, blocker, 30*time.Second)
}

// TestCancelQueuedVsRunning: a queued job cancels instantly without ever
// running; a running job stops at its next step boundary and leaves the
// final checkpoint artifact.
func TestCancelQueuedVsRunning(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	running, _, err := s.Submit(slowSpec("alice", ""))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning, 15*time.Second)
	queued, _, err := s.Submit(fastSpec("bob", ""))
	if err != nil {
		t.Fatal(err)
	}

	// Cancel while queued: immediate, and the event stream never shows a
	// running state.
	if err := s.Cancel(queued.ID, "changed my mind"); err != nil {
		t.Fatal(err)
	}
	if st := queued.State(); st != StateCanceled {
		t.Fatalf("queued job state %s after cancel, want canceled", st)
	}
	evs, done, err := queued.EventsSince(context.Background(), 0)
	if err != nil || !done {
		t.Fatalf("events: done=%v err=%v", done, err)
	}
	for _, e := range evs {
		if e.State == StateRunning {
			t.Fatal("cancel-while-queued job reports a running state event")
		}
	}

	// Cancel while running: graceful boundary stop with a checkpoint.
	if err := s.Cancel(running.ID, "preempted"); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, running, 30*time.Second); st != StateCanceled {
		t.Fatalf("running job ended %s after cancel, want canceled", st)
	}
	if st := running.Status(); st.Reason != "preempted" {
		t.Fatalf("cancel reason %q, want %q", st.Reason, "preempted")
	}
	if _, err := os.Stat(filepath.Join(running.Dir, "checkpoint.ckp")); err != nil {
		t.Fatalf("canceled running job left no checkpoint: %v", err)
	}
	if err := s.Cancel(running.ID, "again"); err != ErrFinished {
		t.Fatalf("cancel of finished job: got %v, want ErrFinished", err)
	}
}

// TestEventsSinceBeyondEnd: a resume position past the end of a terminal
// job's stream must report done immediately — the terminal state skips the
// wait loop, so anything else would make the HTTP stream loop spin hot for
// the lifetime of the connection.
func TestEventsSinceBeyondEnd(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	j, _, err := s.Submit(fastSpec("alice", ""))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j, 30*time.Second); st != StateSucceeded {
		t.Fatalf("job ended %s", st)
	}
	evs, done, err := j.EventsSince(context.Background(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 0 || !done {
		t.Fatalf("EventsSince past the end: %d events, done=%v, want 0 events and done",
			len(evs), done)
	}
}

// TestDrainRequeue: a drain checkpoints the running job, snapshots the
// queued specs, and a fresh service over the same data dir requeues them
// under their original IDs. The drained running job itself comes back too,
// carrying its boundary checkpoint as the restore point.
func TestDrainRequeue(t *testing.T) {
	dir := t.TempDir()
	s := newTestService(t, Config{Workers: 1, DataDir: dir})
	running, _, err := s.Submit(slowSpec("alice", ""))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning, 15*time.Second)
	q1, _, err := s.Submit(fastSpec("bob", ""))
	if err != nil {
		t.Fatal(err)
	}
	q2, _, err := s.Submit(fastSpec("carol", ""))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := running.State(); st != StateCanceled {
		t.Fatalf("drained running job state %s, want canceled", st)
	}
	if _, err := os.Stat(filepath.Join(running.Dir, "checkpoint.ckp")); err != nil {
		t.Fatalf("drained job left no checkpoint: %v", err)
	}
	if _, _, err := s.Submit(fastSpec("erin", "")); err != ErrDraining {
		t.Fatalf("submit during drain: got %v, want ErrDraining", err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, "queue.json"))
	if err != nil {
		t.Fatalf("queue snapshot: %v", err)
	}
	var parsed queueSnapshot
	if err := json.Unmarshal(snap, &parsed); err != nil || len(parsed.Specs) != 2 {
		t.Fatalf("snapshot holds %d specs (err %v), want 2", len(parsed.Specs), err)
	}
	if len(parsed.Resume) != 1 || parsed.Resume[0].Spec.ID() != running.ID {
		t.Fatalf("snapshot resume entries %+v, want the drained running job %s",
			parsed.Resume, running.ID)
	}
	if parsed.Resume[0].Restore != filepath.Join(running.Dir, "checkpoint.ckp") {
		t.Fatalf("resume restore %q, want the drained job's checkpoint", parsed.Resume[0].Restore)
	}
	s.Close()

	// The successor requeues the specs into the same deterministic jobs and
	// runs the queued ones to completion; the drained job returns with its
	// checkpoint as the restore point (it is canceled rather than waited
	// out — slowSpec runs for 20000 steps).
	s2 := newTestService(t, Config{Workers: 2, DataDir: dir})
	resumed, ok := s2.Job(running.ID)
	if !ok {
		t.Fatalf("drained running job %s not requeued after restart", running.ID)
	}
	if resumed.restore == "" {
		t.Fatalf("requeued drained job %s carries no restore checkpoint", running.ID)
	}
	for _, id := range []string{q1.ID, q2.ID} {
		j, ok := s2.Job(id)
		if !ok {
			t.Fatalf("job %s not requeued after restart", id)
		}
		if st := waitTerminal(t, j, 30*time.Second); st != StateSucceeded {
			t.Fatalf("requeued job %s ended %s", id, st)
		}
	}
	if err := s2.Cancel(resumed.ID, "test done"); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, resumed, 30*time.Second)
	if _, err := os.Stat(filepath.Join(dir, "queue.json")); !os.IsNotExist(err) {
		t.Fatalf("queue snapshot not consumed: %v", err)
	}
}

// TestPriorityOrder: with one worker, a higher-priority spec submitted
// later overtakes the FIFO order.
func TestPriorityOrder(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	blocker, _, err := s.Submit(slowSpec("blocker", ""))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning, 15*time.Second)
	low, _, err := s.Submit(fastSpec("low", ""))
	if err != nil {
		t.Fatal(err)
	}
	hiSpec := fastSpec("high", "")
	hiSpec.Priority = 5
	high, _, err := s.Submit(hiSpec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(blocker.ID, "unblock"); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, blocker, 30*time.Second)
	waitTerminal(t, high, 30*time.Second)
	waitTerminal(t, low, 30*time.Second)
	lo, hi := low.Status(), high.Status()
	if lo.Started.Before(*hi.Started) {
		t.Fatalf("priority inversion: low started %v before high %v", lo.Started, hi.Started)
	}
}

// --- fleet engine against the fake sim ------------------------------------

func fleetService(t *testing.T, hang bool) *Service {
	t.Helper()
	t.Setenv("MPCF_SERVICE_FAKE_SIM", "1")
	if hang {
		t.Setenv("MPCF_SERVICE_FAKE_HANG", "1")
	} else {
		os.Unsetenv("MPCF_SERVICE_FAKE_HANG")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return newTestService(t, Config{Workers: 1, SimBin: exe})
}

// TestFleetModeResolution: a rank product beyond the in-process limit
// makes an auto-mode job a fleet job, the step log tail and the
// observables artifact feed the event stream, and the muxed rank output
// lands as log events.
func TestFleetJobRunsAndStreams(t *testing.T) {
	s := fleetService(t, false)
	spec := fastSpec("alice", "")
	spec.Params.Ranks = [3]int{2, 1, 1}
	j, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j.Mode != ModeFleet {
		t.Fatalf("rank product 2 resolved to mode %s, want fleet", j.Mode)
	}
	if st := waitTerminal(t, j, 30*time.Second); st != StateSucceeded {
		t.Fatalf("fleet job ended %s", st)
	}
	obs := j.Observables()
	if obs == nil || obs["peak_amp"] != 2.5 {
		t.Fatalf("fleet observables not picked up: %v", obs)
	}
	evs, _, err := j.EventsSince(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	steps, logs := 0, 0
	for _, e := range evs {
		switch e.Type {
		case "step":
			steps++
		case "log":
			logs++
		}
	}
	if steps != 3 {
		t.Fatalf("fleet stream carries %d step events, want 3 (from the rank-0 step log)", steps)
	}
	if logs == 0 {
		t.Fatal("fleet stream carries no log events from the rank output mux")
	}
	// Only rank 0 logs steps: observers do not change a rank's collective
	// schedule, so the other ranks need no throwaway step log.
	if _, err := os.Stat(filepath.Join(j.Dir, "steps.rank1.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("rank 1 wrote a step log (stat: %v)", err)
	}
}

// TestFleetResumeStartsWithCleanLogs: a requeued drained fleet job runs
// again in its old directory. The previous attempt's rank-0 step log, frame
// log and observables must not reach the new attempt's events, even when
// the new rank 0 writes its own only after the tails have started polling.
func TestFleetResumeStartsWithCleanLogs(t *testing.T) {
	s := fleetService(t, false)
	t.Setenv("MPCF_SERVICE_FAKE_DELAY", "300ms") // several 50 ms tail ticks
	spec := fastSpec("alice", "")
	spec.Params.Ranks = [3]int{2, 1, 1}
	spec.Params.DumpEvery = 2
	dir := filepath.Join(s.cfg.DataDir, "jobs", spec.ID())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var stale []byte
	for i := 1; i <= 5; i++ {
		stale = fmt.Appendf(stale, `{"step":%d,"t":%g,"dt":0.001,"has_diag":true,"max_p":-1}`+"\n",
			i, float64(i)*0.001)
	}
	staleFrame, _ := json.Marshal(dump.Frame{Name: "p_step000001.mpcf", Step: 1,
		Quantity: "p", Time: 0.001, Data: []byte("stale")}.Record())
	for name, data := range map[string][]byte{
		"steps.jsonl":      stale,
		"frames.jsonl":     append(staleFrame, '\n'),
		"observables.json": []byte(`{"peak_amp": -1}` + "\n"),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	j, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j.Dir != dir {
		t.Fatalf("job dir %s, want %s", j.Dir, dir)
	}
	if st := waitTerminal(t, j, 30*time.Second); st != StateSucceeded {
		t.Fatalf("fleet job ended %s", st)
	}
	evs, _, err := j.EventsSince(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var steps []int
	var frames []string
	for _, e := range evs {
		switch e.Type {
		case "step":
			if e.Step.MaxPressure != 100*float64(e.Step.Step) {
				t.Errorf("step event %d carries max_p %g: a previous attempt's record",
					e.Step.Step, e.Step.MaxPressure)
			}
			steps = append(steps, e.Step.Step)
		case "frame":
			frames = append(frames, e.Frame.Name)
		}
	}
	if fmt.Sprint(steps) != "[1 2 3]" {
		t.Fatalf("step events %v, want exactly this attempt's [1 2 3]", steps)
	}
	if fmt.Sprint(frames) != "[p_step000002.mpcf]" {
		t.Fatalf("frame events %v, want exactly this attempt's [p_step000002.mpcf]", frames)
	}
	if obs := j.Observables(); obs["peak_amp"] != 2.5 {
		t.Fatalf("observables %v, want this attempt's peak_amp 2.5", obs)
	}
}

// TestFleetCancel: canceling a running fleet job triggers the SIGINT
// cascade; the interrupted ranks' exit is a cancel, not a failure.
func TestFleetCancel(t *testing.T) {
	s := fleetService(t, true)
	spec := fastSpec("alice", "")
	spec.Params.Ranks = [3]int{2, 1, 1}
	j, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning, 15*time.Second)
	// Give the ranks a moment to install their signal handlers.
	time.Sleep(100 * time.Millisecond)
	if err := s.Cancel(j.ID, "fleet cancel"); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j, 30*time.Second); st != StateCanceled {
		t.Fatalf("canceled fleet job ended %s", st)
	}
}
