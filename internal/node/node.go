// Package node implements the paper's node layer (§6): it coordinates the
// work within one rank, assigning blocks to threads with dynamic scheduling
// at one-block granularity and providing each worker with dedicated scratch
// buffers (Lab, ring slices, RHS workspace).
//
// Threads are goroutines pinned 1:1 to workers in a persistent pool created
// once per engine; per-block tasks are drained from a channel, the direct
// analog of OpenMP dynamic scheduling with chunk size one but without the
// per-region fork/join. Stages may run bulk-synchronous (ComputeRHS +
// Update) or as a dependency-driven fused RHS+UP pipeline (BeginFused).
package node

import (
	"runtime"

	"cubism/internal/core"
	"cubism/internal/grid"
	"cubism/internal/physics"
	"cubism/internal/telemetry"
)

// Engine executes the compute kernels over the blocks of one rank-local
// grid.
type Engine struct {
	G  *grid.Grid
	BC grid.BC
	// Vector selects the QPX (4-lane vector) kernel variants, the
	// instruction-accounting experiment of Tables 7–9; production ranks
	// build scalar engines.
	Vector bool

	workers int
	scratch []*workspace
	pool    *pool
	// partial holds the per-block maxima of MaxCharVel, reused across
	// steps so the DT kernel allocates nothing in steady state.
	partial []float64
}

// workspace is the per-worker dedicated buffer set.
type workspace struct {
	lab *grid.Lab
	rhs *core.RHS
	vec *core.RHSVec
}

// New creates an engine with the given number of workers (0 means
// runtime.NumCPU()). The worker goroutines are spawned here, once, and live
// for the engine's lifetime; Close (or garbage collection of the engine)
// retires them.
func New(g *grid.Grid, bc grid.BC, workers int, vector bool) *Engine {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	e := &Engine{G: g, BC: bc, Vector: vector, workers: workers}
	e.scratch = make([]*workspace, workers)
	for i := range e.scratch {
		ws := &workspace{lab: grid.NewLab(g.N)}
		if vector {
			ws.vec = core.NewRHSVec(g.N)
		} else {
			ws.rhs = core.NewRHS(g.N)
		}
		e.scratch[i] = ws
	}
	e.partial = make([]float64, len(g.Blocks))
	// Queue capacity covers a full grid of tasks so a stage submission
	// rarely blocks; correctness does not depend on it (workers drain).
	e.pool = newPool(workers, len(g.Blocks)+workers+1)
	// The workers reference only the pool, so an engine dropped without an
	// explicit Close becomes collectable and the finalizer retires them.
	runtime.SetFinalizer(e, func(e *Engine) { e.pool.close() })
	return e
}

// Workers returns the worker count.
func (e *Engine) Workers() int { return e.workers }

// SetGrid swaps the engine onto a new rank-local grid with the same block
// size — the block-migration path of a layout rebalance. The persistent
// worker pool and the per-worker scratch are reused (workers are never
// respawned across a migration; the spawn-once invariant holds for the
// process lifetime); only the per-block DT scratch is resized.
func (e *Engine) SetGrid(g *grid.Grid) {
	if g.N != e.G.N {
		panic("node: SetGrid requires the same block size")
	}
	e.G = g
	e.partial = make([]float64, len(g.Blocks))
}

// Close retires the pool workers. The engine must not be used afterwards.
// Optional: unclosed engines are cleaned up by a GC finalizer.
func (e *Engine) Close() { e.pool.close() }

// SetTrace attaches a span tracer (may be nil) and this engine's rank id;
// each task then records one span on the executing worker's track, plus
// pool.idle spans covering the time workers spend waiting for work.
func (e *Engine) SetTrace(t *telemetry.Tracer, rank int) {
	e.pool.tracer.Store(t)
	e.pool.rank.Store(int64(rank))
}

// Parallel runs body(worker, item) for every item in [0, n), distributing
// items dynamically across the persistent pool workers — the generic
// parallel-for other layers (the dump ENC stage) schedule onto the same
// threads as the solver kernels. region names the spans recorded on each
// worker's trace track.
func (e *Engine) Parallel(region string, n int, body func(w, i int)) {
	e.parallel(region, n, body)
}

// parallel runs body(worker, blockOrdinal) for every ordinal in [0, n),
// distributing ordinals dynamically across the pool workers. region names
// the spans recorded on each worker's trace track.
func (e *Engine) parallel(region string, n int, body func(w, i int)) {
	if n == 0 {
		return
	}
	run := &StageRun{e: e, name: region, n: int32(n), body: body, done: make(chan struct{})}
	for i := int32(0); i < int32(n); i++ {
		e.pool.submit(poolTask{run: run, i: i})
	}
	<-run.done
}

// ComputeRHS evaluates the right-hand side of the listed blocks into the
// matching out buffers (block AoS layout). Each worker loads block data and
// ghosts into its dedicated lab before invoking the core kernel.
func (e *Engine) ComputeRHS(blocks []*grid.Block, out [][]float32) {
	e.parallel("RHS.worker", len(blocks), func(w, i int) {
		ws := e.scratch[w]
		ws.lab.Load(e.G, e.BC, blocks[i])
		if e.Vector {
			ws.vec.Compute(ws.lab, e.G.H, out[i])
		} else {
			ws.rhs.Compute(ws.lab, e.G.H, out[i])
		}
	})
}

// Update applies one UP stage to every block: reg ← a·reg + dt·rhs,
// u ← u + b·reg.
func (e *Engine) Update(blocks []*grid.Block, reg, rhs [][]float32, a, b, dt float64) {
	vector := e.Vector
	e.parallel("UP.worker", len(blocks), func(w, i int) {
		if vector {
			core.UpdateQPX(blocks[i].Data, reg[i], rhs[i], a, b, dt)
		} else {
			core.UpdateScalar(blocks[i].Data, reg[i], rhs[i], a, b, dt)
		}
	})
}

// MaxCharVel returns the rank-local maximum characteristic velocity (the
// SOS kernel) over all blocks. The per-block maxima are combined in block
// order so the result is deterministic.
func (e *Engine) MaxCharVel() float64 {
	blocks := e.G.Blocks
	partial := e.partial
	vector := e.Vector
	e.parallel("SOS.worker", len(blocks), func(w, i int) {
		if vector {
			partial[i] = core.MaxCharVelQPX(blocks[i].Data)
		} else {
			partial[i] = core.MaxCharVelScalar(blocks[i].Data)
		}
	})
	maxV := 0.0
	for _, v := range partial {
		if v > maxV {
			maxV = v
		}
	}
	return maxV
}

// KernelWork reports the per-step floating point work and compulsory
// traffic of the engine's grid, used by the perf/roofline accounting.
func (e *Engine) KernelWork() (rhsFlops, rhsBytes, upFlops, upBytes, sosFlops, sosBytes int64) {
	cells := int64(e.G.Cells())
	values := cells * physics.NQ
	rhsFlops = cells * core.RHSFlopsPerCell(e.G.N)
	rhsBytes = cells * core.RHSBytesPerCell(e.G.N)
	upFlops = values * core.UpdateFlopsPerValue
	upBytes = values * core.UpdateBytesPerValue
	sosFlops = cells * core.SOSFlopsPerCell
	sosBytes = cells * core.SOSBytesPerCell
	return
}
