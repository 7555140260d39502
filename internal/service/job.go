package service

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"time"

	"cubism/internal/dump"
	"cubism/internal/telemetry"
)

// JobState is the lifecycle state of a job.
type JobState string

// Job lifecycle: Queued → Running → one of the terminal states. Canceled
// covers both a user cancel and a service drain (the StopReason event
// distinguishes them); a drained running job leaves a checkpoint at the
// stop boundary.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateSucceeded JobState = "succeeded"
	StateFailed    JobState = "failed"
	StateCanceled  JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCanceled
}

// Event is one entry of a job's result stream, replayed in full to every
// subscriber and then followed live. Seq is the 0-based position in the
// stream, so a reconnecting subscriber resumes with ?from=<next seq>.
type Event struct {
	Seq  int       `json:"seq"`
	Type string    `json:"type"` // state | step | log | observables | frame
	Time time.Time `json:"time"`

	// State transitions ("state" events); Reason explains cancels.
	State  JobState `json:"state,omitempty"`
	Reason string   `json:"reason,omitempty"`
	Error  string   `json:"error,omitempty"`

	// Step carries the step-log record of one step ("step" events).
	Step *telemetry.StepRecord `json:"step,omitempty"`

	// Line is one process-output line of a fleet job ("log" events).
	Line string `json:"line,omitempty"`

	// Observables is the final collapse metric map ("observables" events).
	Observables map[string]float64 `json:"observables,omitempty"`

	// Frame carries one streamed compressed snapshot ("frame" events): the
	// complete dump-file image, bitwise identical to the file in the job's
	// artifact directory and decodable with dump.Decode.
	Frame *dump.FrameRecord `json:"frame,omitempty"`
}

// Job is one submitted simulation. All mutable state is guarded by mu;
// the cond broadcasts on every appended event and on the terminal
// transition, which is also what wakes streaming subscribers.
type Job struct {
	// Immutable after admission.
	ID   string
	Spec JobSpec
	Mode string // resolved ModeInproc or ModeFleet
	Dir  string // per-job artifact directory
	seq  int64  // admission order, tiebreak within a priority

	mu   sync.Mutex
	cond *sync.Cond

	state           JobState
	reason          string // cancel/drain reason
	errMsg          string
	cancelRequested bool
	// drained marks a running job canceled by a service drain: the queue
	// snapshot includes it (with its boundary checkpoint as the restore
	// point) so the next service start resumes its work.
	drained bool

	// restore is the checkpoint a requeued drained job resumes from. It is
	// installed by requeueSnapshot before the worker pool starts and never
	// written afterwards, so the engines read it without holding mu.
	restore string

	created, started, finished time.Time
	observables                map[string]float64
	subscribers                int

	events    []Event
	eventsLog *os.File // events.jsonl artifact, nil once closed

	// cancel is installed by the runner while the job executes: it
	// requests a graceful stop of whichever engine runs the job (controller
	// stop for in-process, SIGINT cascade for fleets).
	cancel func(reason string)
}

func newJob(id string, spec JobSpec, mode, dir string, seq int64) *Job {
	j := &Job{ID: id, Spec: spec, Mode: mode, Dir: dir, seq: seq,
		state: StateQueued, created: time.Now()}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// emitLocked appends one event, stamps its sequence number, persists it to
// the events.jsonl artifact and wakes subscribers. Callers hold mu.
func (j *Job) emitLocked(e Event) {
	e.Seq = len(j.events)
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	j.events = append(j.events, e)
	if j.eventsLog != nil {
		if b, err := json.Marshal(e); err == nil {
			j.eventsLog.Write(append(b, '\n'))
		}
	}
	j.cond.Broadcast()
}

func (j *Job) emit(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.emitLocked(e)
}

// setState transitions the job and emits the state event; terminal states
// close the events artifact.
func (j *Job) setState(s JobState, reason, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = s
	switch s {
	case StateRunning:
		j.started = time.Now()
	case StateSucceeded, StateFailed, StateCanceled:
		j.finished = time.Now()
		j.reason = reason
		j.errMsg = errMsg
	}
	j.emitLocked(Event{Type: "state", State: s, Reason: reason, Error: errMsg})
	if s.Terminal() && j.eventsLog != nil {
		j.eventsLog.Close()
		j.eventsLog = nil
	}
}

// emitStep streams one step record.
func (j *Job) emitStep(rec telemetry.StepRecord) {
	j.emit(Event{Type: "step", Step: &rec})
}

// emitFrame streams one frame record.
func (j *Job) emitFrame(rec dump.FrameRecord) {
	j.emit(Event{Type: "frame", Frame: &rec})
}

// setObservables records the final metric map and streams it.
func (j *Job) setObservables(m map[string]float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.observables = m
	j.emitLocked(Event{Type: "observables", Observables: m})
}

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Observables returns the final metric map (nil until the run produced it).
func (j *Job) Observables() map[string]float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.observables
}

// Done reports whether the job reached a terminal state.
func (j *Job) Done() bool { return j.State().Terminal() }

// EventsSince blocks until events past seq exist (or the job is terminal),
// then returns a snapshot of them plus whether the stream is complete.
// A canceled ctx unblocks the wait and returns ctx.Err().
func (j *Job) EventsSince(ctx context.Context, seq int) ([]Event, bool, error) {
	// Wake the cond wait when the subscriber goes away; Broadcast is the
	// only cross-goroutine kick a cond understands.
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()
	j.mu.Lock()
	defer j.mu.Unlock()
	for len(j.events) <= seq && !j.state.Terminal() {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		j.cond.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	evs := append([]Event(nil), j.events[min(seq, len(j.events)):]...)
	// >= (not ==) clamps a resume position past the end of a terminal
	// stream: the wait loop above is skipped for terminal states, so an
	// out-of-range seq would otherwise report done=false forever and spin
	// the caller's stream loop hot.
	done := j.state.Terminal() && seq+len(evs) >= len(j.events)
	return evs, done, nil
}

// Status is the wire shape of GET /v1/jobs/{id}.
type Status struct {
	ID       string   `json:"id"`
	Tenant   string   `json:"tenant"`
	Scenario string   `json:"scenario"`
	Mode     string   `json:"mode"`
	Priority int      `json:"priority"`
	State    JobState `json:"state"`
	Reason   string   `json:"reason,omitempty"`
	Error    string   `json:"error,omitempty"`

	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`

	Events      int                `json:"events"`
	Subscribers int                `json:"subscribers"`
	ArtifactDir string             `json:"artifact_dir,omitempty"`
	Observables map[string]float64 `json:"observables,omitempty"`
}

// Status snapshots the job for the API.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID: j.ID, Tenant: j.Spec.Tenant, Scenario: j.Spec.Scenario,
		Mode: j.Mode, Priority: j.Spec.Priority,
		State: j.state, Reason: j.reason, Error: j.errMsg,
		Created: j.created, Events: len(j.events),
		Subscribers: j.subscribers,
		ArtifactDir: j.Dir, Observables: j.observables,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}
