package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cubism/internal/dump"
	"cubism/internal/launch"
	"cubism/internal/scenario"
	"cubism/internal/sim"
	"cubism/internal/telemetry"
)

// Admission errors; the HTTP layer maps them to 429 (caps) and 503
// (draining).
var (
	ErrQueueFull    = errors.New("service: queue full")
	ErrTenantQueued = errors.New("service: tenant queued-job cap reached")
	ErrDraining     = errors.New("service: draining, not accepting jobs")
	ErrNotFound     = errors.New("service: no such job")
	ErrFinished     = errors.New("service: job already finished")
)

// Config sizes the service.
type Config struct {
	// DataDir is the artifact root; per-job directories are created under
	// DataDir/jobs/<id>, and the drain snapshot lands at DataDir/queue.json.
	DataDir string
	// SimBin locates mpcf-sim for fleet jobs ("" resolves a sibling of
	// the serving binary, then PATH).
	SimBin string
	// Workers is the warm worker pool size — the global concurrent-job
	// bound (default 2).
	Workers int
	// MaxQueue bounds the pending queue across all tenants (default 64).
	MaxQueue int
	// TenantRunning caps one tenant's concurrently running jobs
	// (default 1).
	TenantRunning int
	// TenantQueued caps one tenant's queued jobs (default 8).
	TenantQueued int
	// InprocRankLimit is the largest rank product an auto-mode job may
	// run in-process; beyond it the job forks a rank fleet (default 1).
	InprocRankLimit int
	// StopGrace is how long a canceled fleet rank may take to reach its
	// step boundary before the force-exit fallbacks fire: it is passed to
	// every rank as -stop-grace and stretches the launcher's SIGKILL
	// escalation to match, so a job whose steps outlast mpcf-sim's 1.5s
	// default still drains to a boundary checkpoint (default 20s; keep it
	// below the caller's drain budget).
	StopGrace time.Duration
	// Registry receives the service metrics (nil: disabled).
	Registry *telemetry.Registry
	// Logf is the service diagnostics sink (nil: discarded).
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.TenantRunning <= 0 {
		c.TenantRunning = 1
	}
	if c.TenantQueued <= 0 {
		c.TenantQueued = 8
	}
	if c.InprocRankLimit <= 0 {
		c.InprocRankLimit = 1
	}
	if c.StopGrace <= 0 {
		c.StopGrace = 20 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// jobDurationBuckets span smoke jobs through multi-minute production
// cases (seconds).
var jobDurationBuckets = []float64{
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600,
}

// Service is the job front end: admission-controlled multi-tenant queue,
// warm worker pool, and the in-process/fleet execution engines.
type Service struct {
	cfg Config

	mu       sync.Mutex
	cond     *sync.Cond // dispatch wakeups: submit, job finish, drain, close
	queue    []*Job     // pending jobs in admission order
	jobs     map[string]*Job
	running  map[string]int // running jobs per tenant
	queued   map[string]int // queued jobs per tenant
	nRunning int
	nextSeq  int64
	draining bool
	closed   bool

	workerWG sync.WaitGroup
	jobWG    sync.WaitGroup

	mQueued    *telemetry.Gauge
	mRunning   *telemetry.Gauge
	mSubs      *telemetry.Gauge
	mDone      map[JobState]*telemetry.Counter
	mRejected  map[string]*telemetry.Counter
	mQueueWait *telemetry.Histogram
	mDuration  *telemetry.Histogram
}

// New builds the service, requeues any drain snapshot left in DataDir and
// starts the worker pool.
func New(cfg Config) (*Service, error) {
	cfg.fill()
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("service: DataDir is required")
	}
	if err := os.MkdirAll(filepath.Join(cfg.DataDir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("service: data dir: %w", err)
	}
	s := &Service{
		cfg:     cfg,
		jobs:    make(map[string]*Job),
		running: make(map[string]int),
		queued:  make(map[string]int),
	}
	s.cond = sync.NewCond(&s.mu)
	reg := cfg.Registry
	s.mQueued = reg.Gauge("mpcf_service_jobs_queued", "jobs waiting in the admission queue", nil)
	s.mRunning = reg.Gauge("mpcf_service_jobs_running", "jobs currently executing", nil)
	s.mSubs = reg.Gauge("mpcf_service_stream_subscribers", "open event-stream subscriptions", nil)
	s.mDone = map[JobState]*telemetry.Counter{}
	for _, st := range []JobState{StateSucceeded, StateFailed, StateCanceled} {
		s.mDone[st] = reg.Counter("mpcf_service_jobs_done_total",
			"jobs finished by terminal state", telemetry.Labels{"state": string(st)})
	}
	s.mRejected = map[string]*telemetry.Counter{}
	for _, r := range []string{"queue_full", "tenant_queued", "draining", "invalid"} {
		s.mRejected[r] = reg.Counter("mpcf_service_admission_rejected_total",
			"submissions rejected by admission control", telemetry.Labels{"reason": r})
	}
	s.mQueueWait = reg.Histogram("mpcf_service_job_queue_wait_seconds",
		"submit-to-start latency", jobDurationBuckets, nil)
	s.mDuration = reg.Histogram("mpcf_service_job_duration_seconds",
		"start-to-finish job duration", jobDurationBuckets, nil)

	if err := s.requeueSnapshot(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s, nil
}

// Submit validates, admits and enqueues one job. The bool reports whether
// the job was newly created; resubmitting an identical spec returns the
// existing job (deterministic IDs make retries idempotent).
func (s *Service) Submit(spec JobSpec) (*Job, bool, error) {
	if err := spec.Validate(); err != nil {
		s.mRejected["invalid"].Inc()
		return nil, false, fmt.Errorf("service: invalid spec: %w", err)
	}
	mode := spec.Mode
	if mode == "" || mode == ModeAuto {
		mode = ModeInproc
		if spec.RankProduct() > s.cfg.InprocRankLimit {
			mode = ModeFleet
		}
	}
	id := spec.ID()

	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j, false, nil
	}
	if s.draining || s.closed {
		s.mRejected["draining"].Inc()
		return nil, false, ErrDraining
	}
	if len(s.queue) >= s.cfg.MaxQueue {
		s.mRejected["queue_full"].Inc()
		return nil, false, ErrQueueFull
	}
	if s.queued[spec.Tenant] >= s.cfg.TenantQueued {
		s.mRejected["tenant_queued"].Inc()
		return nil, false, ErrTenantQueued
	}

	dir := filepath.Join(s.cfg.DataDir, "jobs", id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, false, fmt.Errorf("service: job dir: %w", err)
	}
	s.nextSeq++
	j := newJob(id, spec, mode, dir, s.nextSeq)
	if f, err := os.Create(filepath.Join(dir, "events.jsonl")); err == nil {
		j.eventsLog = f
	}
	j.emit(Event{Type: "state", State: StateQueued})
	s.jobs[id] = j
	s.queue = append(s.queue, j)
	s.queued[spec.Tenant]++
	s.updateGaugesLocked()
	s.cond.Broadcast()
	s.cfg.Logf("service: job %s queued (tenant=%s scenario=%s mode=%s)",
		id, spec.Tenant, spec.Scenario, mode)
	return j, true, nil
}

// Job looks up a job by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists all jobs (optionally one tenant's), newest first.
func (s *Service) Jobs(tenant string) []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Job
	for _, j := range s.jobs {
		if tenant == "" || j.Spec.Tenant == tenant {
			out = append(out, j)
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].seq > out[k].seq })
	return out
}

// Cancel requests a graceful stop: a queued job leaves the queue
// immediately; a running job stops at its next step boundary (writing the
// final checkpoint) through whichever engine runs it.
func (s *Service) Cancel(id, reason string) error {
	if reason == "" {
		reason = "canceled by request"
	}
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return ErrNotFound
	}
	// Queued: dequeue under the service lock so a worker cannot claim it
	// mid-cancel.
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.queued[j.Spec.Tenant]--
			s.updateGaugesLocked()
			s.mu.Unlock()
			j.setState(StateCanceled, reason, "")
			s.mDone[StateCanceled].Inc()
			return nil
		}
	}
	s.mu.Unlock()

	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return ErrFinished
	}
	j.cancelRequested = true
	j.reason = reason
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel(reason)
	}
	return nil
}

// Drain stops admission, gracefully cancels every running job (each stops
// at a step boundary and checkpoints) and snapshots the still-queued specs
// to DataDir/queue.json so the next service start requeues them. It
// returns once every running job finished or ctx expires.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	var runningJobs []*Job
	for _, j := range s.jobs {
		if j.State() == StateRunning {
			runningJobs = append(runningJobs, j)
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	for _, j := range runningJobs {
		j.mu.Lock()
		j.cancelRequested = true
		j.drained = true
		if j.reason == "" {
			j.reason = "service drain"
		}
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel("service drain")
		}
	}

	done := make(chan struct{})
	go func() { s.jobWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		// A wedged running job must not take the queued specs down with
		// it: snapshot what we have before reporting the drain failure —
		// a restart is exactly when preserving the queue matters most.
		if serr := s.snapshotQueue(); serr != nil {
			s.cfg.Logf("service: drain: queue snapshot: %v", serr)
		}
		return fmt.Errorf("service: drain: %w", ctx.Err())
	}
	return s.snapshotQueue()
}

// resumeEntry is one drained running job in the queue snapshot: its spec
// plus the boundary checkpoint it resumes from ("" reruns from scratch
// when the drain ended the job before any checkpoint landed).
type resumeEntry struct {
	Spec    JobSpec `json:"spec"`
	Restore string  `json:"restore,omitempty"`
}

// queueSnapshot is the on-disk shape of DataDir/queue.json.
type queueSnapshot struct {
	Specs  []JobSpec     `json:"specs,omitempty"`
	Resume []resumeEntry `json:"resume,omitempty"`
}

// snapshotQueue persists the queued specs — and the drained running jobs
// with their checkpoints — for the next start.
func (s *Service) snapshotQueue() error {
	s.mu.Lock()
	snap := queueSnapshot{Specs: make([]JobSpec, 0, len(s.queue))}
	for _, j := range s.queue {
		snap.Specs = append(snap.Specs, j.Spec)
	}
	var drained []*Job
	for _, j := range s.jobs {
		j.mu.Lock()
		// A drained job that raced to normal completion (or failed on its
		// own) is settled; only a drain-canceled (or, on an expired drain
		// budget, still-running) job has work worth resuming.
		wasDrained := j.drained && j.state != StateSucceeded && j.state != StateFailed
		j.mu.Unlock()
		if wasDrained {
			drained = append(drained, j)
		}
	}
	sort.Slice(drained, func(i, k int) bool { return drained[i].seq < drained[k].seq })
	for _, j := range drained {
		e := resumeEntry{Spec: j.Spec}
		if ckpt := filepath.Join(j.Dir, "checkpoint.ckp"); fileExists(ckpt) {
			e.Restore = ckpt
		}
		snap.Resume = append(snap.Resume, e)
	}
	s.mu.Unlock()
	path := filepath.Join(s.cfg.DataDir, "queue.json")
	if len(snap.Specs) == 0 && len(snap.Resume) == 0 {
		os.Remove(path)
		return nil
	}
	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("service: queue snapshot: %w", err)
	}
	s.cfg.Logf("service: snapshotted %d queued + %d drained jobs to %s",
		len(snap.Specs), len(snap.Resume), path)
	return nil
}

func fileExists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && !st.IsDir()
}

// requeueSnapshot resubmits the specs a drained predecessor left behind.
// Deterministic IDs make this safe to repeat: the same spec lands in the
// same job.
func (s *Service) requeueSnapshot() error {
	path := filepath.Join(s.cfg.DataDir, "queue.json")
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("service: reading queue snapshot: %w", err)
	}
	var snap queueSnapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		return fmt.Errorf("service: queue snapshot corrupt: %w", err)
	}
	os.Remove(path)
	for _, spec := range snap.Specs {
		if _, _, err := s.Submit(spec); err != nil {
			s.cfg.Logf("service: requeue of snapshot spec failed: %v", err)
		}
	}
	for _, e := range snap.Resume {
		j, created, err := s.Submit(e.Spec)
		if err != nil {
			s.cfg.Logf("service: requeue of drained spec failed: %v", err)
			continue
		}
		// The worker pool starts after requeue, so the restore point can be
		// installed without racing the engines. A restore whose checkpoint
		// vanished in the meantime reruns from scratch.
		if created && fileExists(e.Restore) {
			j.restore = e.Restore
		}
	}
	if n := len(snap.Specs) + len(snap.Resume); n > 0 {
		s.cfg.Logf("service: requeued %d jobs from drain snapshot (%d resuming from checkpoints)",
			n, len(snap.Resume))
	}
	return nil
}

// Close shuts the worker pool down after the current jobs finish. It does
// not cancel running jobs — use Drain first for a graceful stop.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.workerWG.Wait()
}

// Stuck reports the queued+running job count — the "zero stuck jobs"
// smoke-check hook.
func (s *Service) Stuck() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue) + s.nRunning
}

func (s *Service) updateGaugesLocked() {
	s.mQueued.Set(float64(len(s.queue)))
	s.mRunning.Set(float64(s.nRunning))
}

// subscriberDelta tracks open event streams for the metrics endpoint.
func (s *Service) subscriberDelta(j *Job, d int) {
	j.mu.Lock()
	j.subscribers += d
	j.mu.Unlock()
	s.mSubs.Add(float64(d))
}

// nextRunnableLocked picks the dispatchable job: highest priority first,
// FIFO within a priority, skipping tenants already at their running cap
// (a capped tenant's jobs wait without blocking other tenants behind
// them).
func (s *Service) nextRunnableLocked() int {
	best := -1
	for i, j := range s.queue {
		if s.running[j.Spec.Tenant] >= s.cfg.TenantRunning {
			continue
		}
		if best < 0 || j.Spec.Priority > s.queue[best].Spec.Priority {
			best = i
		}
	}
	return best
}

// worker is one warm pool slot: claim, run, repeat.
func (s *Service) worker() {
	defer s.workerWG.Done()
	for {
		s.mu.Lock()
		var j *Job
		for {
			if s.closed {
				s.mu.Unlock()
				return
			}
			if !s.draining {
				if i := s.nextRunnableLocked(); i >= 0 {
					j = s.queue[i]
					s.queue = append(s.queue[:i], s.queue[i+1:]...)
					break
				}
			}
			s.cond.Wait()
		}
		s.queued[j.Spec.Tenant]--
		s.running[j.Spec.Tenant]++
		s.nRunning++
		s.jobWG.Add(1)
		s.updateGaugesLocked()
		s.mu.Unlock()

		s.runJob(j)

		s.mu.Lock()
		s.running[j.Spec.Tenant]--
		s.nRunning--
		s.updateGaugesLocked()
		s.cond.Broadcast() // the freed tenant slot may unblock a queued job
		s.mu.Unlock()
		s.jobWG.Done()
	}
}

// runJob executes one claimed job through its engine and settles the
// terminal state.
func (s *Service) runJob(j *Job) {
	s.mQueueWait.Observe(time.Since(j.created).Seconds())
	j.setState(StateRunning, "", "")
	start := time.Now()
	s.cfg.Logf("service: job %s running (%s)", j.ID, j.Mode)

	var stopped bool
	var err error
	if j.Mode == ModeFleet {
		stopped, err = s.runFleet(j)
	} else {
		stopped, err = s.runInproc(j)
	}
	s.mDuration.Observe(time.Since(start).Seconds())

	j.mu.Lock()
	j.cancel = nil
	reason := j.reason
	canceled := j.cancelRequested
	j.mu.Unlock()
	switch {
	case err != nil:
		j.setState(StateFailed, "", err.Error())
		s.mDone[StateFailed].Inc()
		s.cfg.Logf("service: job %s failed: %v", j.ID, err)
	case stopped || canceled:
		if reason == "" {
			reason = "stopped"
		}
		j.setState(StateCanceled, reason, "")
		s.mDone[StateCanceled].Inc()
		s.cfg.Logf("service: job %s canceled (%s)", j.ID, reason)
	default:
		j.setState(StateSucceeded, "", "")
		s.mDone[StateSucceeded].Inc()
		s.cfg.Logf("service: job %s succeeded in %v", j.ID, time.Since(start).Round(time.Millisecond))
	}
}

// installCancel arms the job's cancel hook, firing it immediately when a
// cancel raced the start.
func (j *Job) installCancel(cancel func(reason string)) {
	j.mu.Lock()
	already := j.cancelRequested
	reason := j.reason
	if !already {
		j.cancel = cancel
	}
	j.mu.Unlock()
	if already {
		cancel(reason)
	}
}

// runInproc executes the job inside the service process: the scenario's
// goroutine-rank world with the observables pipeline attached and a
// controller stop as the cancel hook. Returns whether the run was stopped
// gracefully.
func (s *Service) runInproc(j *Job) (stopped bool, err error) {
	c, err := j.Spec.Case()
	if err != nil {
		return false, err
	}
	cfg := c.Config
	ctl := sim.NewController()
	cfg.Control = ctl
	cfg.StopCheckpoint = true
	cfg.CheckpointPath = filepath.Join(j.Dir, "checkpoint.ckp")
	cfg.RestorePath = j.restore // resume a requeued drained job's work
	if cfg.DumpEvery > 0 {
		// Frames land in the artifact directory AND on the event stream:
		// the sink runs on the world's rank 0 goroutine with the assembled
		// dump-file image, bitwise identical to the file beside it.
		cfg.DumpDir = j.Dir
		cfg.FrameSink = func(f dump.Frame) error {
			j.emitFrame(f.Record())
			return nil
		}
	}
	j.installCancel(func(reason string) { ctl.Stop(reason) })

	obs := scenario.NewObserver(c)
	sum, err := sim.Run(cfg, func(st sim.StepInfo) {
		obs.OnStep(st)
		j.emitStep(st.Record())
	})
	if err != nil {
		return false, err
	}
	// Observables land on the canceled path too: a stopped job leaves its
	// partial metrics as a usable artifact, exactly like mpcf-sim does.
	metrics := obs.Metrics()
	if err := writeJSON(filepath.Join(j.Dir, "observables.json"), metrics); err != nil {
		return sum.Stopped, err
	}
	j.setObservables(metrics)
	return sum.Stopped, nil
}

// runFleet executes the job as a local rank fleet of mpcf-sim processes
// over the tcp transport, streaming rank 0's structured step log and the
// muxed process output as events. The cancel hook is the launch package's
// SIGINT cascade, which the ranks turn into a collective boundary stop.
func (s *Service) runFleet(j *Job) (stopped bool, err error) {
	// Resolve the scenario defaults locally so the fleet flags pin every
	// parameter explicitly — an in-process job and a fleet job of the same
	// spec must run the identical case.
	c, err := j.Spec.Case()
	if err != nil {
		return false, err
	}
	stepLogPath := filepath.Join(j.Dir, "steps.jsonl")
	frameLogPath := filepath.Join(j.Dir, "frames.jsonl")
	obsPath := filepath.Join(j.Dir, "observables.json")
	// A requeued drained job runs again in the same directory: clear the
	// previous attempt's rank-0 artifacts, or the tails would replay its
	// steps and frames and a rank 0 that dies early would report its
	// observables.
	for _, p := range []string{stepLogPath, frameLogPath, obsPath} {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
			return false, err
		}
	}
	fl, err := launch.Start(launch.Spec{
		N:      j.Spec.RankProduct(),
		SimBin: s.cfg.SimBin,
		Args:   s.fleetArgs(j, c),
		// The ranks get StopGrace to reach their boundary; the launcher's
		// SIGKILL escalation must land after that, not at its 2s default,
		// or a long-step job loses its final checkpoint to the kill.
		KillGrace: s.cfg.StopGrace + launch.KillGrace,
		RankArgs: func(rank int) []string {
			// Only rank 0 logs steps and writes the observables artifact;
			// neither changes a rank's collective schedule.
			if rank != 0 {
				return nil
			}
			return []string{"-step-log", stepLogPath, "-observables", obsPath}
		},
		Stdout: j.lineWriter("out"),
		Stderr: j.lineWriter("launch"),
	})
	if err != nil {
		return false, err
	}
	j.installCancel(func(string) { fl.Interrupt() })

	// Tail rank 0's step log into the event stream while the fleet runs,
	// and — when the job dumps — the frame log the rank-0 sink appends.
	tailStop := make(chan struct{})
	tailDone := make(chan struct{})
	go tailStepLog(stepLogPath, tailStop, tailDone, j)
	frameDone := make(chan struct{})
	if j.Spec.Params.DumpEvery > 0 {
		go tailFrameLog(frameLogPath, tailStop, frameDone, j)
	} else {
		close(frameDone)
	}

	code := fl.Wait()
	close(tailStop)
	<-tailDone
	<-frameDone

	if m, rerr := readObservables(obsPath); rerr == nil {
		j.setObservables(m)
	}
	j.mu.Lock()
	canceled := j.cancelRequested
	j.mu.Unlock()
	if canceled {
		// The SIGINT cascade makes interrupted ranks exit 130; that is the
		// cancel succeeding, not a failure.
		return true, nil
	}
	if code != 0 {
		return false, fmt.Errorf("fleet exited with code %d", code)
	}
	return false, nil
}

// fleetArgs renders the job's resolved case as mpcf-sim flags.
func (s *Service) fleetArgs(j *Job, c *scenario.Case) []string {
	cc := c.Config.Cluster
	p := j.Spec.Params
	args := []string{
		"-scenario", j.Spec.Scenario,
		"-quiet",
		"-steps", fmt.Sprint(c.Config.Steps),
		"-n", fmt.Sprint(cc.BlockSize),
		"-blocks", triple(cc.BlockDims),
		"-ranks", triple(cc.RankDims),
		"-diag-every", fmt.Sprint(c.Config.DiagEvery),
		"-stop-checkpoint",
		"-checkpoint", filepath.Join(j.Dir, "checkpoint.ckp"),
		"-stop-grace", s.cfg.StopGrace.String(),
	}
	if j.restore != "" {
		args = append(args, "-restore", j.restore)
	}
	if p.Seed != 0 {
		args = append(args, "-seed", fmt.Sprint(p.Seed))
	}
	if p.Beta > 0 {
		args = append(args, "-beta", fmt.Sprint(p.Beta))
	}
	if p.Bubbles != 0 {
		args = append(args, "-bubbles", fmt.Sprint(p.Bubbles))
	}
	if p.Workers != 0 {
		args = append(args, "-workers", fmt.Sprint(p.Workers))
	}
	if p.Layout != "" {
		args = append(args, "-layout", p.Layout)
	}
	if p.DumpEvery > 0 {
		// Dump flags are uniform across the fleet (frame streaming is
		// collective); -frame-log is uniform too, but only rank 0 — the
		// stream's sink — ever writes it, so the shared path is safe.
		args = append(args, "-dump-every", fmt.Sprint(p.DumpEvery),
			"-dump-dir", j.Dir,
			"-frame-log", filepath.Join(j.Dir, "frames.jsonl"))
		if p.Encoder != "" {
			args = append(args, "-encoder", p.Encoder)
		}
	}
	return args
}

func triple(t [3]int) string { return fmt.Sprintf("%d,%d,%d", t[0], t[1], t[2]) }

// tailStepLog polls rank 0's JSONL step log and emits each decoded record
// as a step event; after stop it drains whatever the final flush appended.
func tailStepLog(path string, stop <-chan struct{}, done chan<- struct{}, j *Job) {
	tailJSONL(path, stop, done, func(line []byte) {
		var rec telemetry.StepRecord
		if json.Unmarshal(line, &rec) == nil {
			j.emitStep(rec)
		}
	})
}

// tailFrameLog polls the frame log the fleet's rank-0 sink appends
// (mpcf-sim -frame-log) and emits each decoded record as a frame event
// carrying the complete dump-file bytes.
func tailFrameLog(path string, stop <-chan struct{}, done chan<- struct{}, j *Job) {
	tailJSONL(path, stop, done, func(line []byte) {
		var rec dump.FrameRecord
		if json.Unmarshal(line, &rec) == nil {
			j.emitFrame(rec)
		}
	})
}

// tailJSONL polls a growing JSONL file, invoking emit with each complete
// line; after stop it drains whatever the final flush appended. The file
// may not exist yet when the tail starts.
func tailJSONL(path string, stop <-chan struct{}, done chan<- struct{}, emit func(line []byte)) {
	defer close(done)
	var f *os.File
	var rd *bufio.Reader
	var partial []byte
	defer func() {
		if f != nil {
			f.Close()
		}
	}()
	drain := func() {
		if f == nil {
			var err error
			if f, err = os.Open(path); err != nil {
				return
			}
			rd = bufio.NewReader(f)
		}
		for {
			chunk, err := rd.ReadBytes('\n')
			if len(chunk) > 0 {
				partial = append(partial, chunk...)
			}
			if err != nil {
				return // EOF for now; the partial tail carries over
			}
			line := partial
			partial = nil
			emit(line)
		}
	}
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			drain()
		case <-stop:
			drain()
			return
		}
	}
}

// lineWriter adapts the job's log-event stream to an io.Writer for the
// fleet's output mux, splitting on newlines and flushing any unterminated
// tail when the fleet closes the stream.
func (j *Job) lineWriter(source string) io.Writer {
	return &lineWriter{j: j, source: source}
}

type lineWriter struct {
	j      *Job
	source string

	mu  sync.Mutex // the per-rank mux goroutines share one writer
	buf []byte
}

func (w *lineWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(w.buf[:i])
		w.buf = w.buf[i+1:]
		if line != "" {
			w.j.emit(Event{Type: "log", Line: line})
		}
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readObservables(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]float64
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, err
	}
	return m, nil
}
