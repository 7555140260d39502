// Package cluster implements the paper's cluster layer (§6): the domain is
// decomposed across ranks under an explicit layout — the paper's cartesian
// topology with a constant subdomain size, or a space-filling-curve
// partition whose contiguous curve chunks can be rebalanced at run time —
// and non-blocking point-to-point messages exchange per-block ghost
// information for the halo blocks while the interior blocks are dispatched
// to the node layer, hiding the communication time behind computation.
package cluster

import (
	"fmt"
	"math"
	"time"

	"cubism/internal/checkpoint"
	"cubism/internal/compress"
	"cubism/internal/core"
	"cubism/internal/dump"
	"cubism/internal/grid"
	"cubism/internal/layout"
	"cubism/internal/mpi"
	"cubism/internal/node"
	"cubism/internal/perf"
	"cubism/internal/physics"
	"cubism/internal/telemetry"
)

// Config describes one production-style run.
type Config struct {
	// RankDims is the cartesian rank grid (product must equal world size).
	// Together with BlockDims it defines the global block box for every
	// layout.
	RankDims [3]int
	// BlockDims is the number of blocks per rank per dimension.
	BlockDims [3]int
	// BlockSize is the block edge in cells (paper production value: 32).
	BlockSize int
	// Extent is the physical edge length of one cell times global cells in
	// x; H is derived from it.
	Extent float64
	// BC are the global physical boundary conditions.
	BC grid.BC
	// Workers per rank (0: NumCPU).
	Workers int
	// CFL is the time step safety factor (paper: 0.3).
	CFL float64
	// Pipeline selects the execution model of the low-storage RK3 step.
	// True is the production model: per-block fused RHS+UP tasks on the
	// persistent worker pool, with halo blocks released per installed face.
	// The three constructors of production configs — cubism.Run,
	// scenario.Build and verify's runCase — set it. False (the zero value)
	// keeps the bulk-synchronous staged step with separate RHS and UP
	// phases: the bitwise reference of the pipelined step and the source
	// of the separate RHS/UP rows of Figure 7, Table 6 and the benchmark
	// probes. Both models are bitwise identical.
	Pipeline bool
	// Layout selects the cross-rank block decomposition: "" or "cartesian"
	// (the paper's fixed rank grid), or an SFC partition — "hilbert",
	// "morton", "rowmajor" — whose curve cut points the rebalancer can move
	// at run time. Physics is bitwise identical across all of them.
	Layout string
	// LayoutCuts overrides the initial curve cut points of an SFC layout
	// (len world+1) — the synthetic-skew hook of the rebalance benchmarks.
	LayoutCuts []int
	// Tracer (optional) records solver-phase spans for this rank; nil
	// disables tracing at the cost of a pointer check per phase.
	Tracer *telemetry.Tracer
	// Init fills the initial condition from global physical coordinates.
	Init func(x, y, z float64) physics.Prim
}

// Link is one entry of the precomputed neighbor/tag table: a face of a
// locally owned block whose neighbor block lives on another rank. Each link
// is simultaneously one receive (the neighbor's layers install as this
// block's face halo) and one send (this block's face layers feed the
// neighbor's opposite face), tagged by canonical block id so multiple
// blocks can cross the same rank pair in one direction.
type Link struct {
	Block int       // local block ordinal in grid order
	Face  grid.Face // face of the local block the link crosses
	Peer  int       // rank owning the neighbor block
	MyID  int64     // canonical linear id of the local block
	NbID  int64     // canonical linear id of the neighbor block
}

// Rank is the per-rank simulation state.
type Rank struct {
	Cfg    Config
	Comm   *mpi.Comm
	Layout *layout.Layout
	G      *grid.Grid
	Engine *node.Engine
	Mon    *perf.Monitor

	Step int
	Time float64

	tr     *telemetry.Tracer
	rankID int

	// Cumulative communication-phase time, nanoseconds: ghostNS covers the
	// pack/post side of the exchange, waitNS the time blocked on neighbor
	// messages (InstallHalos or the pipelined per-link installs). The
	// observatory diffs these per step for the Table-4 phase rows.
	ghostNS int64
	waitNS  int64

	// dumpSeq counts streamed frames; it versions the TagDump namespace so
	// frames of the same step (p then Γ) never reuse a (dst, tag) pair.
	dumpSeq int

	reg                  [][]float32 // low-storage Runge-Kutta registers, one per block
	rhs                  [][]float32 // RHS evaluation buffers, one per block
	interior, haloBlocks []*grid.Block
	interiorRHS, haloRHS [][]float32

	deps  *stageDeps
	links []Link
	// linkRelease[i] is the one-element release list of links[i], kept
	// allocated so the pipelined installs release without allocating.
	linkRelease [][]int32
	// recvs is the reusable request slice of ExchangeGhosts.
	recvs []*mpi.Request
	// packBufs reuses the PackFace payload buffers per link and RK stage.
	// One buffer per (link, stage) is safe: the receiver has finished
	// reading the stage-s slab of step k before this rank can reach stage
	// s of step k+1 (it cannot complete its own stages s+1 and s+2 without
	// this rank's later-stage messages, and each of those stages starts by
	// clearing the previously installed halos).
	packBufs [][3][]float32

	// migrations counts the blocks this rank has sent or received in
	// rebalance migrations; lastBusyNS is the pool busy counter at the
	// previous rebalance check (the load metric is the delta).
	migrations int64
	lastBusyNS int64
}

// stageDeps is the precomputed task-dependency structure of one fused
// RHS+UP stage (identical for all stages and steps under one layout).
type stageDeps struct {
	// start[i] counts the inter-rank halo links block i's lab reads; the
	// task may start only after those are installed.
	start []int32
	// labDeps[i] lists the ordinals of the locally owned blocks whose data
	// block i's lab assembly reads (face adjacency including periodic
	// wraps, which is symmetric — the same list enumerates the readers of
	// block i). Self-adjacency through a one-block periodic axis adds no
	// entry: the lab reads the block's own data, which needs no ordering.
	labDeps [][]int32
}

// NewRank builds the rank-local grid and engine for comm.
func NewRank(comm *mpi.Comm, cfg Config) *Rank {
	periodic := [3]bool{
		cfg.BC[grid.XLo] == grid.Periodic,
		cfg.BC[grid.YLo] == grid.Periodic,
		cfg.BC[grid.ZLo] == grid.Periodic,
	}
	lay, err := layout.New(cfg.Layout, cfg.RankDims, cfg.BlockDims, comm.Size(), periodic)
	if err != nil {
		panic(fmt.Sprintf("cluster: %v", err))
	}
	if cfg.LayoutCuts != nil {
		lay = lay.WithCuts(cfg.LayoutCuts)
	}
	n := cfg.BlockSize
	globalCellsX := lay.GB[0] * n
	h := cfg.Extent / float64(globalCellsX)
	desc := grid.Desc{
		N:   n,
		NBX: lay.GB[0], NBY: lay.GB[1], NBZ: lay.GB[2],
		H: h,
	}
	g := grid.NewPartial(desc, lay.Blocks(comm.Rank()))
	r := &Rank{
		Cfg:    cfg,
		Comm:   comm,
		Layout: lay,
		G:      g,
		Engine: node.New(g, cfg.BC, cfg.Workers, false),
		Mon:    perf.NewMonitor(),
		tr:     cfg.Tracer,
		rankID: comm.Rank(),
	}
	r.Engine.SetTrace(cfg.Tracer, r.rankID)
	r.allocBuffers()
	r.buildTopology()
	if cfg.Init != nil {
		r.Initialize(cfg.Init)
	}
	return r
}

// Close retires the rank's engine pool workers. Optional — unclosed
// engines are reclaimed by a finalizer — but long-lived processes that
// build many ranks should close them promptly.
func (r *Rank) Close() { r.Engine.Close() }

// allocBuffers sizes the per-block RK registers and RHS buffers to the
// current grid (called at construction and again after a migration).
func (r *Rank) allocBuffers() {
	per := r.G.N * r.G.N * r.G.N * physics.NQ
	nb := len(r.G.Blocks)
	r.reg = make([][]float32, nb)
	r.rhs = make([][]float32, nb)
	for i := range r.reg {
		r.reg[i] = make([]float32, per)
		r.rhs[i] = make([]float32, per)
	}
}

// buildTopology derives, once per layout, everything the exchange and the
// pipelined stages replay every step: the neighbor/tag link table, the
// per-block start counts and in-rank lab dependencies, the halo/interior
// block split, and the reusable pack/request buffers. It is recomputed
// only when the layout changes (a migration).
func (r *Rank) buildTopology() {
	g, lay := r.G, r.Layout
	nb := len(g.Blocks)
	d := &stageDeps{
		start:   make([]int32, nb),
		labDeps: make([][]int32, nb),
	}
	ord := make(map[[3]int]int32, nb)
	for i, b := range g.Blocks {
		ord[[3]int{b.X, b.Y, b.Z}] = int32(i)
	}
	r.links = r.links[:0]
	for i, b := range g.Blocks {
		c := [3]int{b.X, b.Y, b.Z}
		for f := grid.XLo; f <= grid.ZHi; f++ {
			nc, ok := lay.Neighbor(c, f)
			if !ok {
				// Physical boundary: absorbing/reflecting ghosts mirror
				// cells of this same block, adding no dependency.
				continue
			}
			if nc == c {
				// One-block periodic axis: the wrap reads this block's own
				// data directly in the lab.
				continue
			}
			if j, owned := ord[nc]; owned {
				// Locally owned neighbor: the lab copies its data directly.
				d.labDeps[i] = append(d.labDeps[i], j)
				continue
			}
			// Remote neighbor: one halo link gates this block's start.
			d.start[i]++
			r.links = append(r.links, Link{
				Block: i,
				Face:  f,
				Peer:  lay.Owner(nc),
				MyID:  lay.LinearID(c),
				NbID:  lay.LinearID(nc),
			})
		}
	}
	r.deps = d
	r.linkRelease = make([][]int32, len(r.links))
	for i, lk := range r.links {
		r.linkRelease[i] = []int32{int32(lk.Block)}
	}
	r.recvs = make([]*mpi.Request, len(r.links))
	r.packBufs = make([][3][]float32, len(r.links))

	r.interior, r.haloBlocks = nil, nil
	r.interiorRHS, r.haloRHS = nil, nil
	for i, b := range g.Blocks {
		if d.start[i] > 0 {
			r.haloBlocks = append(r.haloBlocks, b)
			r.haloRHS = append(r.haloRHS, r.rhs[i])
		} else {
			r.interior = append(r.interior, b)
			r.interiorRHS = append(r.interiorRHS, r.rhs[i])
		}
	}
}

// Links returns a copy of the precomputed neighbor/tag table: one entry per
// (owned block, face) pair whose neighbor lives on another rank.
func (r *Rank) Links() []Link {
	return append([]Link(nil), r.links...)
}

// Initialize fills the rank subdomain from a global primitive field.
func (r *Rank) Initialize(f func(x, y, z float64) physics.Prim) {
	g := r.G
	n := g.N
	for _, b := range g.Blocks {
		for iz := 0; iz < n; iz++ {
			for iy := 0; iy < n; iy++ {
				for ix := 0; ix < n; ix++ {
					x, y, z := g.CellCenter(b.X*n+ix, b.Y*n+iy, b.Z*n+iz)
					c := f(x, y, z).ToCons()
					cell := b.At(ix, iy, iz)
					cell[physics.QR] = float32(c.R)
					cell[physics.QU] = float32(c.RU)
					cell[physics.QV] = float32(c.RV)
					cell[physics.QW] = float32(c.RW)
					cell[physics.QE] = float32(c.E)
					cell[physics.QG] = float32(c.G)
					cell[physics.QP] = float32(c.Pi)
				}
			}
		}
	}
}

// opposite returns the matching face on the neighboring block.
func opposite(f grid.Face) grid.Face { return f ^ 1 }

// ExchangeGhosts posts the ghost exchange for one RK stage: returns the
// receive requests, one per link; the caller computes interior blocks, then
// calls InstallHalos with the requests.
//
// "Every rank sends 6 messages to its adjacent neighbors ... while waiting
// for the messages, the rank dispatches the interior blocks to the node
// layer" (§6). Under an SFC layout a block's six neighbors may live on any
// rank, so messages are tagged per block (the receiver's canonical block
// id plus the receiving face) rather than per rank face.
func (r *Rank) ExchangeGhosts(stage int) []*mpi.Request {
	sp := r.tr.StartSpan("ghost_exchange", r.rankID, 0)
	defer sp.End()
	t0 := time.Now()
	defer func() { r.ghostNS += int64(time.Since(t0)) }()
	r.Comm.BeginTagEpoch() // each halo cycle is one tag epoch for the reuse assertion
	r.G.ClearHalos()
	for i, lk := range r.links {
		b := r.G.Blocks[lk.Block]
		r.recvs[i] = r.Comm.Irecv(lk.Peer, mpi.TagGhostBlock(lk.MyID, int(lk.Face), stage))
		// Reuse the per-(link, stage) payload buffer; see packBufs for why
		// the receiver is guaranteed done with the previous round's slab.
		payload := b.PackFace(lk.Face, r.packBufs[i][stage][:0])
		r.packBufs[i][stage] = payload
		// The neighbor installs this as its opposite-face halo; tag with
		// the receiver's block id and face. PackFace emits depth d=0 as the
		// layer closest to the shared face, exactly the d=0 "adjacent to
		// the block" layer SetHalo expects, so the payload installs as is.
		r.Comm.Isend(lk.Peer, mpi.TagGhostBlock(lk.NbID, int(opposite(lk.Face)), stage), payload)
	}
	return r.recvs
}

// InstallHalos waits for the ghost messages and installs them on their
// blocks.
func (r *Rank) InstallHalos(recvs []*mpi.Request) {
	sp := r.tr.StartSpan("halo_wait", r.rankID, 0)
	defer sp.End()
	t0 := time.Now()
	defer func() { r.waitNS += int64(time.Since(t0)) }()
	for i, rq := range recvs {
		lk := r.links[i]
		r.G.Blocks[lk.Block].SetHalo(lk.Face, rq.Wait())
	}
}

// MaxDT computes the global CFL time step (the DT kernel + its global
// scalar reduction).
func (r *Rank) MaxDT() float64 {
	dt, _ := r.maxDT(false)
	return dt
}

// maxDT is MaxDT with a stop flag riding the same MaxOp reduction: it
// reports whether any rank asked to stop.
func (r *Rank) maxDT(stop bool) (dt float64, stopped bool) {
	sp := r.tr.StartSpan("DT", r.rankID, 0)
	defer sp.End()
	t0 := time.Now()
	flag := 0.0
	if stop {
		flag = 1
	}
	global := r.Comm.AllreduceVec([]float64{r.Engine.MaxCharVel(), flag}, mpi.MaxOp)
	cells := int64(r.G.Cells())
	r.Mon.Kernel("DT").RecordSince(t0, cells*core.SOSFlopsPerCell, cells*core.SOSBytesPerCell)
	if global[0] <= 0 {
		return 0, global[1] > 0
	}
	return r.Cfg.CFL * r.G.H / global[0], global[1] > 0
}

// RKStep advances one full low-storage Runge-Kutta step of size dt: three
// stages of ghost exchange, RHS evaluation (interior overlapped with
// communication) and UP update, either pipelined or staged (Cfg.Pipeline).
func (r *Rank) RKStep(dt float64) {
	if r.Cfg.Pipeline {
		r.rkStepPipelined(dt)
		return
	}
	cells := int64(r.G.Cells())
	values := cells * physics.NQ
	for s := 0; s < 3; s++ {
		recvs := r.ExchangeGhosts(s)
		t0 := time.Now()
		rhsSpan := r.tr.StartSpan("RHS", r.rankID, 0)
		r.Engine.ComputeRHS(r.interior, r.interiorRHS)
		r.InstallHalos(recvs)
		r.Engine.ComputeRHS(r.haloBlocks, r.haloRHS)
		rhsSpan.End()
		r.Mon.Kernel("RHS").RecordSince(t0,
			cells*core.RHSFlopsPerCell(r.G.N), cells*core.RHSBytesPerCell(r.G.N))

		t0 = time.Now()
		upSpan := r.tr.StartSpan("UP", r.rankID, 0)
		r.Engine.Update(r.G.Blocks, r.reg, r.rhs, core.RK3A[s], core.RK3B[s], dt)
		upSpan.End()
		r.Mon.Kernel("UP").RecordSince(t0,
			values*core.UpdateFlopsPerValue, values*core.UpdateBytesPerValue)
	}
	r.Step++
	r.Time += dt
}

// rkStepPipelined advances one step with the dependency-driven
// execution model: each stage submits every block as one fused RHS+UP task
// to the persistent pool. Interior blocks (StartDeps zero) start
// immediately and overlap the halo exchange; each arriving link releases
// exactly the block whose lab reads it. The fused tasks round the RHS
// through float32 and apply the identical update arithmetic, so the result
// is bitwise equal to the staged path regardless of execution order.
func (r *Rank) rkStepPipelined(dt float64) {
	cells := int64(r.G.Cells())
	for s := 0; s < 3; s++ {
		recvs := r.ExchangeGhosts(s)
		t0 := time.Now()
		stageSpan := r.tr.StartSpan("RHSUP", r.rankID, 0)
		run := r.Engine.BeginFused("RHSUP.worker", &node.FusedStage{
			Blocks: r.G.Blocks,
			RHS:    r.rhs,
			Reg:    r.reg,
			A:      core.RK3A[s], B: core.RK3B[s], Dt: dt,
			StartDeps: r.deps.start,
			LabDeps:   r.deps.labDeps,
		})
		for i, rq := range recvs {
			lk := r.links[i]
			sp := r.tr.StartSpan("halo_install", r.rankID, 0)
			tf := time.Now()
			r.G.Blocks[lk.Block].SetHalo(lk.Face, rq.Wait())
			run.Release(r.linkRelease[i])
			r.waitNS += int64(time.Since(tf))
			sp.End()
		}
		run.Wait()
		stageSpan.End()
		r.Mon.Kernel("RHSUP").RecordSince(t0,
			cells*core.FusedStageFlopsPerCell(r.G.N), cells*core.FusedStageBytesPerCell(r.G.N))
	}
	r.Step++
	r.Time += dt
}

// CommPhases returns the cumulative communication-phase durations: ghost is
// the pack/post side of the exchanges, wait the time blocked on neighbor
// messages. Callers diff successive values for per-step attribution.
func (r *Rank) CommPhases() (ghost, wait time.Duration) {
	return time.Duration(r.ghostNS), time.Duration(r.waitNS)
}

// Advance runs one complete simulation step (DT + RK3) and returns dt.
func (r *Rank) Advance() float64 {
	dt, _ := r.BeginStep(false)
	return dt
}

// DumpTarget selects where one compressed snapshot goes: a collective
// shared file (Path), a streamed frame over the TagDump channel to the
// rank-0 sink (Stream, with Sink receiving the assembled file image there),
// or both from a single compression pass.
type DumpTarget struct {
	Path   string
	Stream bool
	// Sink receives the assembled frame on rank 0; nil streams and drops
	// (the network work stays identical on every rank).
	Sink dump.FrameSink
}

// Dump writes one quantity's compressed snapshot collectively. The header
// carries each rank's canonical block-id table so readers can reassemble
// the global field under any layout.
func (r *Rank) Dump(path string, q compress.Quantity, eps float64, encoder string) (compress.Stats, error) {
	stats, _, err := r.DumpTo(DumpTarget{Path: path}, q, eps, encoder)
	return stats, err
}

// DumpTo compresses one quantity once — the ENC stage fans out per block
// across the engine's persistent worker pool — and delivers the result to
// the selected targets. It returns the compression stats and the number of
// frame bytes this rank moved over the TagDump channel (0 when not
// streaming).
func (r *Rank) DumpTo(t DumpTarget, q compress.Quantity, eps float64, encoder string) (compress.Stats, int64, error) {
	sp := r.tr.StartSpan("dump", r.rankID, 0)
	defer sp.End()
	t0 := time.Now()
	c, stats, err := compress.Compress(r.G, q, compress.Options{
		Epsilon: eps, Encoder: encoder, Workers: r.Engine.Workers(),
		Parallel: r.Engine.Parallel,
		Tracer:   r.tr, Rank: r.rankID,
	})
	if err != nil {
		return stats, 0, err
	}
	var dec, enc time.Duration
	for i := range stats.DecTimes {
		dec += stats.DecTimes[i]
		enc += stats.EncTimes[i]
	}
	r.Mon.Kernel("FWT").Record(perf.Sample{Duration: dec, FLOPs: 0, Bytes: stats.RawBytes})
	r.Mon.Kernel("ENC").Record(perf.Sample{Duration: enc, Bytes: stats.Encoded})
	tIO := time.Now()
	hdr := dump.Header{
		Quantity:  q.String(),
		Encoder:   encoder,
		Epsilon:   eps,
		BlockSize: r.G.N,
		RankDims:  r.Cfg.RankDims,
		BlockDims: r.Cfg.BlockDims,
		Layout:    r.Layout.Name,
		Step:      r.Step,
		Time:      r.Time,
	}
	ids := make([]int64, len(r.G.Blocks))
	for i, b := range r.G.Blocks {
		ids[i] = r.Layout.LinearID([3]int{b.X, b.Y, b.Z})
	}
	if t.Path != "" {
		if _, err := dump.WriteCollective(r.Comm, t.Path, hdr, c, ids); err != nil {
			return stats, 0, err
		}
	}
	var streamed int64
	if t.Stream {
		seq := r.dumpSeq
		r.dumpSeq++
		streamed, err = dump.StreamCollective(r.Comm, seq, hdr, c, ids, t.Sink)
		if err != nil {
			return stats, 0, err
		}
	}
	r.Mon.Kernel("IO").RecordSince(tIO, 0, stats.Encoded)
	r.Mon.Kernel("IO_WAVELET").RecordSince(t0, 0, stats.RawBytes)
	return stats, streamed, nil
}

// Diagnostics holds the global flow statistics of Figure 5.
type Diagnostics struct {
	Time          float64
	Step          int
	MaxPressure   float64 // maximum pressure in the flow field
	WallPressure  float64 // maximum pressure on the solid wall (if any)
	KineticEnergy float64
	VaporVolume   float64
	EquivRadius   float64
}

// Diagnose computes the global diagnostics in one collective fold (see
// EndStep), bitwise identical across layouts, rank counts and migrations.
func (r *Rank) Diagnose(wall grid.Face, hasWall bool) Diagnostics {
	return r.EndStep(Schedule{DiagEvery: 1, Wall: wall, HasWall: hasWall}, 0).Diag
}

// diagBlock appends block b's partial integrals (kinetic energy, vapor
// volume) to x and raises the pressure maxima in x's head.
func (r *Rank) diagBlock(x []float64, b *grid.Block, wall grid.Face, hasWall bool) []float64 {
	n := r.G.N
	h3 := r.G.H * r.G.H * r.G.H
	gV, gL := physics.Vapor.G(), physics.Liquid.G()
	maxP, wallP := x[fPressure], x[fWallPressure]
	var ke, vap float64
	for iz := 0; iz < n; iz++ {
		for iy := 0; iy < n; iy++ {
			for ix := 0; ix < n; ix++ {
				c := b.At(ix, iy, iz)
				cons := physics.Cons{
					R: float64(c[physics.QR]), RU: float64(c[physics.QU]),
					RV: float64(c[physics.QV]), RW: float64(c[physics.QW]),
					E: float64(c[physics.QE]), G: float64(c[physics.QG]), Pi: float64(c[physics.QP]),
				}
				kin := cons.KineticEnergy()
				p := physics.Pressure(cons.E, kin, cons.G, cons.Pi)
				if p > maxP {
					maxP = p
				}
				ke += kin * h3
				// Vapor volume fraction from the mixture Γ.
				alpha := (cons.G - gL) / (gV - gL)
				if alpha > 1 {
					alpha = 1
				}
				if alpha < 0 {
					alpha = 0
				}
				vap += alpha * h3
				if hasWall && r.onWall(b, wall, ix, iy, iz) && p > wallP {
					wallP = p
				}
			}
		}
	}
	x[fPressure], x[fWallPressure] = maxP, wallP
	return append(x, ke, vap)
}

// equivRadius is the cloud-equivalent radius (3V/4π)^(1/3) of Figure 5.
func equivRadius(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Cbrt(3 * v / (4 * math.Pi))
}

// onWall reports whether cell (ix,iy,iz) of block b lies in the first layer
// adjacent to the global wall face.
func (r *Rank) onWall(b *grid.Block, wall grid.Face, ix, iy, iz int) bool {
	gc := [3]int{b.X*r.G.N + ix, b.Y*r.G.N + iy, b.Z*r.G.N + iz}[wall.Axis()]
	if wall.IsHigh() {
		limit := [3]int{r.G.CellsX(), r.G.CellsY(), r.G.CellsZ()}[wall.Axis()]
		return gc == limit-1
	}
	return gc == 0
}

// ComputeRHSOnly performs one ghost exchange plus a full RHS evaluation
// without the update — the benchmark unit for the node-to-cluster
// comparison (Table 6). All ranks must call it the same number of times.
func (r *Rank) ComputeRHSOnly() {
	recvs := r.ExchangeGhosts(0)
	r.Engine.ComputeRHS(r.interior, r.interiorRHS)
	r.InstallHalos(recvs)
	r.Engine.ComputeRHS(r.haloBlocks, r.haloRHS)
	// Every call reuses the stage-0 pack buffers; unlike RKStep there are no
	// later-stage messages to order successive calls, so align them here.
	r.Comm.Barrier()
}

// SaveCheckpoint writes the full conserved state collectively (lossless;
// see internal/checkpoint). All ranks must call it.
func (r *Rank) SaveCheckpoint(path string) error {
	sp := r.tr.StartSpan("checkpoint", r.rankID, 0)
	defer sp.End()
	return checkpoint.Write(r.Comm, path, r.G, r.Cfg.RankDims, r.Step, r.Time)
}

// RestoreCheckpoint replaces the rank state with the checkpoint contents.
// The checkpoint's block size and global geometry must match; the layout
// and rank count may differ from the writing run — each rank pulls exactly
// the blocks it owns out of the file (see checkpoint.Restore).
func (r *Rank) RestoreCheckpoint(path string) error {
	step, simTime, err := checkpoint.Restore(path, r.G)
	if err != nil {
		return err
	}
	r.Step, r.Time = step, simTime
	return nil
}
