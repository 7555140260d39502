package node

import (
	"sync"
	"sync/atomic"
	"time"

	"cubism/internal/core"
	"cubism/internal/grid"
	"cubism/internal/telemetry"
)

// pool is the engine's persistent worker pool. The workers are spawned once
// when the engine is created and live for its lifetime, draining per-block
// tasks from a single channel — the replacement for the per-region
// goroutine fork/join of the original node layer (~10 spawning barriers per
// step become zero).
//
// Scheduling stays dynamic at one-block granularity: whichever worker is
// free picks up the next queued block, exactly like the atomic-cursor
// scheme it replaces, but without paying goroutine creation on every
// region and with support for tasks that become ready mid-stage (per-face
// halo releases).
//
// Only the engine's owning goroutine submits tasks; workers never send on
// the channel, so a full queue can only be drained, never deadlocked.
type pool struct {
	tasks   chan poolTask
	workers int

	// tracer/rank are attached after construction (SetTrace) and read by
	// the workers on every task, hence atomics.
	tracer atomic.Pointer[telemetry.Tracer]
	rank   atomic.Int64

	spawned  atomic.Int64 // worker goroutines ever created (== workers)
	queued   atomic.Int64 // submitted tasks not yet picked up
	tasksRun atomic.Int64
	busyNS   atomic.Int64
	idleNS   atomic.Int64

	closeOnce sync.Once
}

// poolTask is one unit of work: item i of an in-flight StageRun.
type poolTask struct {
	run *StageRun
	i   int32
}

func newPool(workers, queueCap int) *pool {
	p := &pool{
		tasks:   make(chan poolTask, queueCap),
		workers: workers,
	}
	for w := 0; w < workers; w++ {
		p.spawned.Add(1)
		go p.worker(w)
	}
	return p
}

// worker is the persistent run loop of one pool worker. It deliberately
// references only the pool (not the engine), so an unreferenced engine can
// be garbage-collected and its finalizer can close the pool.
func (p *pool) worker(w int) {
	idleStart := time.Now()
	for {
		tr := p.tracer.Load()
		rank := int(p.rank.Load())
		idleSp := tr.StartSpan("pool.idle", rank, w+1)
		t, ok := <-p.tasks
		grabbed := time.Now()
		p.idleNS.Add(grabbed.Sub(idleStart).Nanoseconds())
		idleSp.End()
		if !ok {
			return
		}
		p.queued.Add(-1)
		sp := tr.StartSpan(t.run.name, rank, w+1)
		completed := t.run.exec(w, int(t.i))
		sp.End()
		done := time.Now()
		p.busyNS.Add(done.Sub(grabbed).Nanoseconds())
		p.tasksRun.Add(1)
		// Signal completion only after the counters are bumped, so PoolStats
		// read right after a stage returns already counts its last task.
		t.run.finish(completed)
		idleStart = done
	}
}

func (p *pool) submit(t poolTask) {
	p.queued.Add(1)
	p.tasks <- t
}

// close makes the workers exit once the queue drains. Idempotent.
func (p *pool) close() {
	p.closeOnce.Do(func() { close(p.tasks) })
}

// PoolStats is a snapshot of the persistent pool's counters, exposed for
// the queue-depth/utilization gauges and the no-respawn assertions.
type PoolStats struct {
	Workers    int   // configured worker count
	Spawned    int64 // worker goroutines ever created; stays == Workers
	QueueDepth int64 // submitted tasks not yet picked up
	TasksRun   int64 // tasks executed since engine creation
	BusyNS     int64 // cumulative worker time spent running tasks
	IdleNS     int64 // cumulative worker time spent waiting for tasks
}

// PoolStats snapshots the engine pool counters.
func (e *Engine) PoolStats() PoolStats {
	p := e.pool
	return PoolStats{
		Workers:    p.workers,
		Spawned:    p.spawned.Load(),
		QueueDepth: p.queued.Load(),
		TasksRun:   p.tasksRun.Load(),
		BusyNS:     p.busyNS.Load(),
		IdleNS:     p.idleNS.Load(),
	}
}

// FusedStage describes one fused RHS+UP stage over a set of blocks. Each
// task evaluates its block's RHS and applies the low-storage RK update as
// soon as doing so cannot disturb any neighbor still assembling its lab.
type FusedStage struct {
	Blocks []*grid.Block
	// RHS[i] is block i's rhs buffer, used only when the update must be
	// deferred (a neighbor still needs the pre-update data); on the fused
	// fast path the rhs never touches memory.
	RHS [][]float32
	// Reg[i] is block i's low-storage RK register.
	Reg      [][]float32
	A, B, Dt float64
	// StartDeps[i] counts the release events (inter-rank halo faces) that
	// must arrive before task i may start; 0 means runnable immediately.
	StartDeps []int32
	// LabDeps[i] lists the ordinals of the blocks whose data task i's lab
	// assembly reads (its in-rank neighbors). Face adjacency is symmetric,
	// so this same list also enumerates the readers of block i — the tasks
	// whose lab loads gate i's in-place update.
	LabDeps [][]int32
}

// StageRun is one in-flight set of per-block tasks on the engine's pool.
type StageRun struct {
	e    *Engine
	name string
	n    int32

	// body is the per-item work of a generic parallel region; nil for
	// fused stages.
	body  func(w, i int)
	fused *FusedStage

	// startPending[i] counts outstanding release events before task i may
	// be submitted.
	startPending []atomic.Int32
	// upPending[i] counts outstanding events before block i's update may
	// run: one per reader's lab load plus one for its own RHS evaluation.
	// Whichever worker drops the count to zero applies the update.
	upPending []atomic.Int32

	completed atomic.Int32
	done      chan struct{}
}

// BeginFused schedules a fused RHS+UP stage and returns immediately; tasks
// with zero start dependencies are queued right away. The caller feeds halo
// completions through Release and blocks in Wait. name labels the per-task
// worker spans.
func (e *Engine) BeginFused(name string, f *FusedStage) *StageRun {
	n := len(f.Blocks)
	run := &StageRun{e: e, name: name, n: int32(n), fused: f, done: make(chan struct{})}
	if n == 0 {
		close(run.done)
		return run
	}
	run.startPending = make([]atomic.Int32, n)
	run.upPending = make([]atomic.Int32, n)
	for i := 0; i < n; i++ {
		run.startPending[i].Store(f.StartDeps[i])
		run.upPending[i].Store(int32(len(f.LabDeps[i])) + 1)
	}
	for i := 0; i < n; i++ {
		if f.StartDeps[i] == 0 {
			e.pool.submit(poolTask{run: run, i: int32(i)})
		}
	}
	return run
}

// Release delivers one readiness event (an installed halo face) to each
// listed task, queueing those whose dependencies are now satisfied. Must be
// called from the goroutine that called BeginFused.
func (run *StageRun) Release(tasks []int32) {
	for _, i := range tasks {
		if run.startPending[i].Add(-1) == 0 {
			run.e.pool.submit(poolTask{run: run, i: i})
		}
	}
}

// Wait blocks until every task of the stage has completed.
func (run *StageRun) Wait() { <-run.done }

// Completed returns the number of fully completed tasks (RHS and update).
func (run *StageRun) Completed() int { return int(run.completed.Load()) }

// exec runs item i on worker w and returns how many of the stage's tasks it
// completed; the worker loop passes that count to finish.
func (run *StageRun) exec(w, i int) int32 {
	if run.fused != nil {
		return run.execFused(w, i)
	}
	run.body(w, i)
	return 1
}

// finish records k completed tasks and releases Wait once all are done.
func (run *StageRun) finish(k int32) {
	if k > 0 && run.completed.Add(k) == run.n {
		close(run.done)
	}
}

// execFused runs one fused task: assemble the lab, evaluate the RHS, and
// apply the RK update as early as the data dependencies allow. Every task
// writes only its own block (plus deferred updates whose count it drops to
// zero), so results are bitwise independent of the schedule. It returns the
// number of tasks it completed: its own when its update ran, plus every
// neighbor whose deferred update it applied.
func (run *StageRun) execFused(w, i int) int32 {
	var completed int32
	e, f := run.e, run.fused
	ws := e.scratch[w]
	ws.lab.Load(e.G, e.BC, f.Blocks[i])
	// The lab now holds private copies of every neighbor value this task
	// needs; announce that, unblocking the neighbors' in-place updates.
	for _, d := range f.LabDeps[i] {
		if run.upPending[d].Add(-1) == 0 {
			run.applyUpdate(int(d))
			completed++
		}
	}
	b := f.Blocks[i]
	if run.upPending[i].Load() == 1 {
		// Every reader of this block has copied it into a lab: only our
		// own RHS evaluation is outstanding, so the update fuses with the
		// BACK stage — the rhs stays in registers instead of
		// round-tripping through memory, and the block data is updated
		// while still cache-resident.
		if e.Vector {
			ws.vec.ComputeFused(ws.lab, e.G.H, b.Data, f.Reg[i], f.A, f.B, f.Dt)
		} else {
			ws.rhs.ComputeFused(ws.lab, e.G.H, b.Data, f.Reg[i], f.A, f.B, f.Dt)
		}
		run.upPending[i].Store(0)
		return completed + 1
	}
	// A neighbor still reads this block's pre-update data: materialize the
	// rhs and defer the update to whoever drops the count to zero.
	if e.Vector {
		ws.vec.Compute(ws.lab, e.G.H, f.RHS[i])
	} else {
		ws.rhs.Compute(ws.lab, e.G.H, f.RHS[i])
	}
	if run.upPending[i].Add(-1) == 0 {
		run.applyUpdate(i)
		completed++
	}
	return completed
}

// applyUpdate performs the deferred RK update of block i from its stored
// rhs; the caller counts the completion. The atomic count transition to
// zero orders it after both the rhs store and the last reader's lab load.
func (run *StageRun) applyUpdate(i int) {
	f := run.fused
	if run.e.Vector {
		core.UpdateQPX(f.Blocks[i].Data, f.Reg[i], f.RHS[i], f.A, f.B, f.Dt)
	} else {
		core.UpdateScalar(f.Blocks[i].Data, f.Reg[i], f.RHS[i], f.A, f.B, f.Dt)
	}
}
