// Package mpi is a message-passing runtime providing the MPI subset
// CUBISM-MPCF uses: non-blocking point-to-point messages, a cartesian
// communicator, allreduce, exclusive prefix sums (for the compressed
// parallel dumps), barriers, and a shared file abstraction with
// write-at-offset semantics.
//
// The paper runs on up to 96 Blue Gene/Q racks with one MPI rank per node.
// Here the matching/collective semantics live in this package while the
// wire itself is pluggable (internal/transport): the default inproc
// transport runs every rank as a goroutine in one process with by-reference
// payload handoff (bitwise identical to the original substrate), and the
// tcp transport shards ranks across OS processes with length-prefixed
// frames (ConnectTCP). All ordering and matching semantics (source+tag
// matching, collective call alignment) follow MPI, so the cluster layer
// above is written exactly as it would be against MPI proper.
package mpi

import (
	"fmt"
	"sync"

	"cubism/internal/transport"
)

// message is one point-to-point payload in flight.
type message struct {
	src, tag int
	data     []byte
}

// mailbox is the per-rank receive queue with source/tag matching.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []message
	err     error // poisoned: the wire failed, blocked takes must not hang
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// deliver is the transport.Handler for this rank.
func (m *mailbox) deliver(src, tag int, payload []byte) {
	m.mu.Lock()
	m.pending = append(m.pending, message{src: src, tag: tag, data: payload})
	m.mu.Unlock()
	m.cond.Broadcast()
}

// poison marks the mailbox dead: every blocked and future take panics with
// the wire failure instead of waiting forever for a message that cannot
// arrive. Escalation (checkpoint-restart guidance, process exit) happens in
// the World.OnError path; poisoning just guarantees no rank hangs.
func (m *mailbox) poison(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.mu.Unlock()
	m.cond.Broadcast()
}

// take blocks until a message matching (src, tag) is available and removes
// it. src == AnySource matches any sender. Matching is FIFO per (src, tag).
// take panics if the mailbox is poisoned by an unrecoverable wire failure.
func (m *mailbox) take(src, tag int) message {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for i, msg := range m.pending {
			if (src == AnySource || msg.src == src) && msg.tag == tag {
				m.pending = append(m.pending[:i], m.pending[i+1:]...)
				return msg
			}
		}
		if m.err != nil {
			panic(fmt.Sprintf("mpi: receive (src=%d tag=%#x) aborted: %v", src, tag, m.err))
		}
		m.cond.Wait()
	}
}

// AnySource matches messages from any rank.
const AnySource = -1

// World owns the communication state of a set of ranks. An in-process
// world (NewWorld) holds every rank; a distributed world (ConnectTCP)
// holds exactly one local rank, with the rest living in peer processes.
type World struct {
	size  int
	local int // local rank in a distributed world; -1 when all ranks are in-process

	boxes []*mailbox           // nil at remote ranks
	eps   []transport.Endpoint // nil at remote ranks

	closeErr error
}

// NewWorld creates an in-process world of the given number of ranks on the
// inproc transport.
func NewWorld(size int) *World {
	if size <= 0 {
		panic("mpi: world size must be positive")
	}
	w := &World{
		size:  size,
		local: -1,
		boxes: make([]*mailbox, size),
		eps:   make([]transport.Endpoint, size),
	}
	hub := transport.NewHub(size)
	for r := 0; r < size; r++ {
		w.boxes[r] = newMailbox()
		w.eps[r] = hub.Endpoint(r, w.boxes[r].deliver)
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Distributed reports whether this world holds only one local rank of a
// multi-process run.
func (w *World) Distributed() bool { return w.local >= 0 }

// LocalRank returns the local rank of a distributed world (-1 in-process).
func (w *World) LocalRank() int { return w.local }

// Err returns the error, if any, from the distributed shutdown handshake
// after Run has returned.
func (w *World) Err() error { return w.closeErr }

// Run executes body once per local rank and waits. In-process it is the
// moral equivalent of mpirun: one goroutine per rank. In a distributed
// world it runs body for the single local rank, then performs a barrier
// (so no rank tears the wire down while peers still depend on it) and the
// graceful transport close; any close error is available via Err.
func (w *World) Run(body func(*Comm)) {
	if w.Distributed() {
		c := &Comm{world: w, rank: w.local, tagCheck: tagCheckEnv}
		body(c)
		c.Barrier()
		w.closeErr = w.eps[w.local].Close()
		return
	}
	var wg sync.WaitGroup
	wg.Add(w.size)
	for r := 0; r < w.size; r++ {
		go func(rank int) {
			defer wg.Done()
			body(&Comm{world: w, rank: rank, tagCheck: tagCheckEnv})
		}(r)
	}
	wg.Wait()
}

// Comm is one rank's handle on the world. A Comm belongs to the rank's
// main goroutine (as in MPI, where a rank issues its own calls); it must
// not be shared across goroutines.
type Comm struct {
	world   *World
	rank    int
	collSeq uint64
	// tagCheck enables the debug assertion that flags reuse of a (dst, tag)
	// pair within one epoch (see checkTag). Off by default, as it costs a
	// map insert per send; MPCF_TAGCHECK=1 turns it on.
	tagCheck bool
	tagSeen  map[uint64]struct{} // send-side (dst,tag) dedup, only when tagCheck is on
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Request represents an in-flight non-blocking operation. Receive requests
// are lazy: the mailbox is matched on Wait rather than at post time. This
// is indistinguishable from an eager receive in this substrate — sends
// complete at post time (inproc: deposited in the receiver's mailbox; tcp:
// enqueued on the peer's write loop), so progress never depends on a
// posted receive — and it avoids spawning one goroutine plus channel per
// receive.
type Request struct {
	recv     *Comm // non-nil for receives
	src, tag int
	received bool
	data     []byte
}

// sentRequest is the shared, already-complete request every Isend returns:
// sends in this substrate finish at post time, so there is nothing to wait
// for and nothing worth allocating.
var sentRequest = &Request{received: true}

// Wait blocks until the operation completes and returns the received data
// as float32s (nil for sends). Wait may be called multiple times; later
// calls return the same payload.
func (r *Request) Wait() []float32 {
	return bytesToFloats(r.WaitBytes())
}

// WaitBytes blocks until the operation completes and returns the raw
// payload bytes (nil for sends).
func (r *Request) WaitBytes() []byte {
	if !r.received {
		msg := r.recv.world.boxes[r.recv.rank].take(r.src, r.tag)
		r.data = msg.data
		r.received = true
	}
	return r.data
}

// WaitAll waits for every request.
func WaitAll(reqs []*Request) {
	for _, r := range reqs {
		if r != nil {
			r.Wait()
		}
	}
}

// IsendBytes posts a non-blocking send of raw bytes to rank dst with the
// given tag — the single generic envelope every typed send lowers onto.
// The payload is handed off by reference; the caller must not mutate it
// until the receiver is done with it (the cluster layer double-buffers).
func (c *Comm) IsendBytes(dst, tag int, payload []byte) *Request {
	if dst < 0 || dst >= c.world.size {
		panic(fmt.Sprintf("mpi: Isend to invalid rank %d", dst))
	}
	c.checkTag(dst, tag)
	if err := c.world.eps[c.rank].Send(dst, tag, payload); err != nil {
		panic(fmt.Sprintf("mpi: rank %d send to %d tag %#x: %v", c.rank, dst, tag, err))
	}
	return sentRequest
}

// Isend posts a non-blocking send of float32 data (by reference, see
// IsendBytes).
func (c *Comm) Isend(dst, tag int, data []float32) *Request {
	return c.IsendBytes(dst, tag, floatsToBytes(data))
}

// Irecv posts a non-blocking receive matching (src, tag). The request must
// be completed with Wait/WaitBytes by the posting goroutine.
func (c *Comm) Irecv(src, tag int) *Request {
	return &Request{recv: c, src: src, tag: tag}
}

// Send is a blocking send of float32 data.
func (c *Comm) Send(dst, tag int, data []float32) { c.Isend(dst, tag, data).Wait() }

// SendBytes is a blocking send of raw bytes.
func (c *Comm) SendBytes(dst, tag int, payload []byte) { c.IsendBytes(dst, tag, payload).Wait() }

// Recv is a blocking receive returning float32 data.
func (c *Comm) Recv(src, tag int) []float32 { return bytesToFloats(c.RecvBytes(src, tag)) }

// RecvBytes is a blocking receive returning the raw payload bytes.
func (c *Comm) RecvBytes(src, tag int) []byte {
	return c.world.boxes[c.rank].take(src, tag).data
}

// SendInts transmits int64 values bit-exactly over the byte envelope.
func (c *Comm) SendInts(dst, tag int, v []int64) { c.SendBytes(dst, tag, intsToBytes(v)) }

// RecvInts receives a message sent with SendInts.
func (c *Comm) RecvInts(src, tag int) []int64 { return bytesToInts(c.RecvBytes(src, tag)) }

// Op combines two float64 values in a reduction.
type Op func(a, b float64) float64

// MaxOp returns the larger value.
func MaxOp(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// SumOp adds the values.
func SumOp(a, b float64) float64 { return a + b }

// nextCollTag returns the tag for this rank's next collective call. MPI
// semantics require all ranks to issue collectives in the same order, so
// the per-rank sequence number lines the calls up; it is carried in the
// tag's low bits so a fast rank's next-collective message sitting in rank
// 0's mailbox cannot be matched by the current one. Ranks drift by at most
// one collective (rank 0 answers call k only after every rank reached k),
// so the 16-bit wrap is collision-free.
func (c *Comm) nextCollTag() int {
	tag := TagColl(c.collSeq)
	c.collSeq++
	return tag
}

// Collectives returns the collective sequence number: how many collective
// calls this rank has issued. Tests use it to pin a collective schedule.
func (c *Comm) Collectives() uint64 { return c.collSeq }

// Fold is the round trip every reduction lowers onto: rank 0 receives each
// rank's vector in ascending rank order (its own at index 0), applies
// combine (called on rank 0 only; others may pass nil) and returns the
// result to every rank. Collective: all ranks call it in matching order.
func (c *Comm) Fold(x []float64, combine func(parts [][]float64) []float64) []float64 {
	tag := c.nextCollTag()
	size := c.world.size
	if c.rank != 0 {
		c.SendBytes(0, tag, f64SliceToBytes(x))
		return bytesToF64Slice(c.RecvBytes(0, tag))
	}
	parts := make([][]float64, size)
	parts[0] = x
	for r := 1; r < size; r++ {
		parts[r] = bytesToF64Slice(c.RecvBytes(r, tag))
	}
	out := combine(parts)
	buf := f64SliceToBytes(out)
	for r := 1; r < size; r++ {
		c.SendBytes(r, tag, buf)
	}
	return out
}

// AllreduceVec combines equal-length x elementwise across all ranks with
// op, folded in ascending rank order, so results are bit-reproducible run
// to run and across transports. Every rank receives the result.
func (c *Comm) AllreduceVec(x []float64, op Op) []float64 {
	return c.Fold(x, func(parts [][]float64) []float64 {
		acc := append([]float64(nil), parts[0]...)
		for _, p := range parts[1:] {
			for i := range acc {
				acc[i] = op(acc[i], p[i])
			}
		}
		return acc
	})
}

// Allreduce combines x across all ranks with op (see AllreduceVec).
func (c *Comm) Allreduce(x float64, op Op) float64 {
	return c.AllreduceVec([]float64{x}, op)[0]
}

// Exscan returns the exclusive prefix sum of x over the ranks: rank r gets
// the sum of x from ranks < r (0 for rank 0). The compressed dump uses it
// to assign file offsets to variable-size rank buffers (paper §6); exact
// below 2^53, as the values travel as float64.
func (c *Comm) Exscan(x int64) int64 {
	var prefix int64
	for _, v := range c.Gather(float64(x))[:c.rank] {
		prefix += int64(v)
	}
	return prefix
}

// Barrier blocks until all ranks arrive.
func (c *Comm) Barrier() { c.Allreduce(0, SumOp) }

// GatherBytesRoot collects each rank's variable-length payload on rank 0,
// in ascending rank order. Rank 0 returns one slice per rank (its own
// payload at index 0, by reference); other ranks return nil. Collective:
// all ranks must call it in matching order.
func (c *Comm) GatherBytesRoot(payload []byte) [][]byte {
	tag := c.nextCollTag()
	size := c.world.size
	if c.rank == 0 {
		out := make([][]byte, size)
		out[0] = payload
		for r := 1; r < size; r++ {
			out[r] = c.RecvBytes(r, tag)
		}
		return out
	}
	c.SendBytes(0, tag, payload)
	return nil
}

// Gather collects one float64 per rank on every rank (an allgather).
func (c *Comm) Gather(x float64) []float64 {
	return c.Fold([]float64{x}, func(parts [][]float64) []float64 {
		out := make([]float64, len(parts))
		for r, p := range parts {
			out[r] = p[0]
		}
		return out
	})
}
