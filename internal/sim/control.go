package sim

import "sync"

// Controller is the first-class cancellation hook of a run: Stop requests
// that the step loop end at the next step boundary, where every rank,
// with or without a controller, agrees on the stop step through the flag
// the step's DT reduction carries — so stopping any one rank (a local Stop
// call, a SIGINT to a single process of a tcp fleet) stops the whole world
// at the same step, and the final checkpoint written there is globally
// consistent. A stopped run returns normally with Summary.Stopped set; it
// is a drain, not a failure.
//
// A Controller is reusable only for one run at a time; the zero value is
// ready to use. All methods are safe for concurrent use.
type Controller struct {
	mu      sync.Mutex
	stopped bool
	acked   bool
	reason  string
	done    chan struct{}
	ackCh   chan struct{}
}

// NewController returns a ready controller.
func NewController() *Controller { return &Controller{} }

// Stop requests a graceful stop at the next step boundary. The first
// reason wins; later calls are no-ops. Safe to call before the run starts
// (the run then stops before its first step).
func (c *Controller) Stop(reason string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return
	}
	c.stopped = true
	c.reason = reason
	if c.done != nil {
		close(c.done)
	}
}

// StopRequested reports whether a stop has been requested locally.
func (c *Controller) StopRequested() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stopped
}

// Reason returns the recorded stop reason ("" when none or stop was
// requested on a different rank of a distributed world).
func (c *Controller) Reason() string {
	if c == nil {
		return ""
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reason
}

// Done returns a channel closed once Stop has been called — a select hook
// for supervisors waiting on cancellation delivery.
func (c *Controller) Done() <-chan struct{} {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		c.done = make(chan struct{})
		if c.stopped {
			close(c.done)
		}
	}
	return c.done
}

// Acknowledge records that the step loop took the stop: the run calls it
// at the boundary where all ranks agreed on the stop step, before the
// final checkpoint write. Idempotent.
func (c *Controller) Acknowledge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.acked {
		return
	}
	c.acked = true
	if c.ackCh != nil {
		close(c.ackCh)
	}
}

// Acked returns a channel closed once the step loop acknowledged the stop
// at a boundary. From that point the run is past its last step and only
// the final artifact writes (checkpoint, observables, telemetry flush)
// remain, so a supervisor's force-exit fallback should stand down rather
// than kill them mid-write.
func (c *Controller) Acked() <-chan struct{} {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ackCh == nil {
		c.ackCh = make(chan struct{})
		if c.acked {
			close(c.ackCh)
		}
	}
	return c.ackCh
}
