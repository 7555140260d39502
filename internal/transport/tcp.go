package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cubism/internal/telemetry"
)

// TCPOptions configures one rank's TCP endpoint.
type TCPOptions struct {
	// Rank and Size identify this rank within the world. Required.
	Rank int
	Size int

	// Coord is the rendezvous coordinator address (host:port). Rank 0
	// listens on it (unless CoordListener is set); every rank dials it to
	// register. Required when Size > 1.
	Coord string

	// Listen is the address the data listener binds ("" means any port on
	// all interfaces, which is right for single-host runs; set an explicit
	// host for multi-homed machines so peers dial a reachable address).
	Listen string

	// DialTimeout bounds the whole rendezvous plus mesh construction
	// (default 30s).
	DialTimeout time.Duration

	// MaxFrame bounds a single frame payload (default DefaultMaxFrame).
	MaxFrame int

	// Reliability knobs (docs/networking.md "Fault model and recovery").
	//
	// HeartbeatInterval is how often an idle link emits a heartbeat frame
	// so the peer's liveness deadline stays fresh (default 2s; negative
	// disables). PeerTimeout is the failure-detection horizon: the longest
	// the endpoint tolerates a silent or unreachable peer before declaring
	// it lost (default 30s); it is also the read deadline on established
	// connections, since heartbeats keep healthy-but-idle links talking.
	// RetransmitTimeout is the longest a sent frame
	// may sit unacknowledged before the connection is presumed broken and
	// recovered (default 3s; negative disables). MaxReconnect caps dial
	// attempts per recovery episode (default 8; negative disables
	// reconnection entirely, turning any connection fault into a peer
	// failure).
	HeartbeatInterval time.Duration
	PeerTimeout       time.Duration
	RetransmitTimeout time.Duration
	MaxReconnect      int

	// Fault, when non-nil, is consulted for every outgoing data frame and
	// may corrupt the wire (drops, duplicates, reorders, bit-flips, resets,
	// delays). Retransmissions and control frames are exempt so recovery
	// always makes progress. Test-only; production runs leave it nil.
	Fault FaultInjector

	// Registry/Tracer receive net metrics and spans; nil disables them.
	Registry *telemetry.Registry
	Tracer   *telemetry.Tracer

	// CoordListener, when non-nil on rank 0, is a pre-bound listener used
	// for rendezvous instead of binding Coord. Lets tests and mpcf-launch
	// pick a free port without a bind race.
	CoordListener net.Listener

	// OnError, when non-nil, observes unrecoverable failures: a peer that
	// stayed unreachable past PeerTimeout/MaxReconnect. Transient faults
	// (resets, drops, corrupted frames) are recovered internally and never
	// reported. At most one error is delivered per endpoint.
	OnError func(error)
}

// Fixed endpoint sizes: sendQueue is the per-peer outgoing frame queue
// depth (Send blocks when it is full: backpressure), resendQueue the
// per-peer window of sent-but-unacked frames (a full window pauses the
// writer until acks arrive), and closeTimeout bounds the graceful FIN
// drain in Close.
const (
	sendQueue    = 256
	resendQueue  = 1024
	closeTimeout = 10 * time.Second
)

func (o *TCPOptions) withDefaults() TCPOptions {
	v := *o
	if v.DialTimeout <= 0 {
		v.DialTimeout = 30 * time.Second
	}
	if v.MaxFrame <= 0 {
		v.MaxFrame = DefaultMaxFrame
	}
	if v.HeartbeatInterval == 0 {
		v.HeartbeatInterval = 2 * time.Second
	}
	if v.PeerTimeout <= 0 {
		v.PeerTimeout = 30 * time.Second
	}
	if v.RetransmitTimeout == 0 {
		v.RetransmitTimeout = 3 * time.Second
	}
	if v.MaxReconnect == 0 {
		v.MaxReconnect = 8
	}
	return v
}

type outFrame struct {
	tag     uint32
	payload []byte
	enq     time.Time
}

// wireFrame is a sequenced frame held in the resend window: assigned its
// sequence number at writer dequeue, removed when the peer's cumulative ack
// passes it, replayed verbatim after a reconnect.
type wireFrame struct {
	tag     uint32
	seq     uint64
	payload []byte
	sentAt  time.Time // last (re)transmission; drives the ack-stall check
}

// acceptedConn is a redial admitted by the accept loop, waiting for the
// peer's supervisor to adopt it.
type acceptedConn struct {
	conn         *net.TCPConn
	peerRecvNext uint64
}

// peerConn is one side of the persistent duplex link to a peer. The conn
// itself is replaceable (reconnects swap it); the reliability state — the
// sequence counters and the resend window — outlives any one connection.
type peerConn struct {
	rank      int
	out       chan outFrame
	accepted  chan acceptedConn // redials admitted by the accept loop (cap 1)
	done      chan struct{}     // supervisor exited
	ackPing   chan struct{}     // reader → writer: ack state advanced (cap 1)
	failed    atomic.Bool
	drainOnce sync.Once

	mu        sync.Mutex
	conn      *net.TCPConn
	nextSeq   uint64      // next outgoing sequence number
	unacked   []wireFrame // sent, not yet cumulatively acked (ascending seq)
	recvNext  uint64      // next sequence number expected from the peer
	ackSent   uint64      // highest recvNext acked on the current connection
	peerFIN   bool        // peer's FIN delivered
	finQueued bool        // our FIN assigned its sequence number
	outClosed bool        // Close drained p.out

	initPRN uint64 // peer's handshake recv_next from mesh construction

	latency *telemetry.Histogram // enqueue→flush seconds, nil when telemetry off
}

type tcpEndpoint struct {
	opts    TCPOptions
	deliver Handler
	peersMu sync.Mutex
	peers   []*peerConn // index by rank; nil at self
	addrs   []string    // peer data-listener addresses (for redials)
	ln      net.Listener

	closed    atomic.Bool // Send rejected; graceful teardown underway
	shutdown  atomic.Bool // hard teardown: stop reconnecting, exit loops
	closeOnce sync.Once
	closeErr  error
	failOnce  sync.Once

	acceptWG sync.WaitGroup
	supWG    sync.WaitGroup

	bytesSent      *telemetry.Counter
	bytesRecv      *telemetry.Counter
	crcErrors      *telemetry.Counter
	reconnects     *telemetry.Counter
	retransmits    *telemetry.Counter
	dupDropped     *telemetry.Counter
	faultsInjected *telemetry.Counter
}

// DialTCP establishes the full peer mesh for one rank: rendezvous through
// the coordinator, then one persistent duplex TCP connection per peer pair
// (the higher rank dials the lower; both sides handshake with their rank
// and expected next sequence number). It returns only after every peer
// connection is up, so the first Send never races mesh construction.
func DialTCP(opts TCPOptions, deliver Handler) (Endpoint, error) {
	o := opts.withDefaults()
	if o.Size <= 0 || o.Rank < 0 || o.Rank >= o.Size {
		return nil, fmt.Errorf("transport: invalid rank %d of %d", o.Rank, o.Size)
	}
	e := &tcpEndpoint{
		opts:    o,
		deliver: deliver,
		peers:   make([]*peerConn, o.Size),
	}
	if o.Registry != nil {
		rankLabel := telemetry.Labels{"rank": fmt.Sprint(o.Rank)}
		e.bytesSent = o.Registry.Counter("mpcf_net_bytes_sent",
			"Wire bytes sent by the tcp transport (headers included).", rankLabel)
		e.bytesRecv = o.Registry.Counter("mpcf_net_bytes_recv",
			"Wire bytes received by the tcp transport (headers included).", rankLabel)
		e.crcErrors = o.Registry.Counter("mpcf_net_crc_errors",
			"Frames rejected by the CRC32C integrity check.", rankLabel)
		e.reconnects = o.Registry.Counter("mpcf_net_reconnects",
			"Peer connections re-established after a failure.", rankLabel)
		e.retransmits = o.Registry.Counter("mpcf_net_retransmits",
			"Frames replayed from the resend window after a reconnect.", rankLabel)
		e.dupDropped = o.Registry.Counter("mpcf_net_dup_frames",
			"Duplicate frames discarded by sequence-number dedup.", rankLabel)
		e.faultsInjected = o.Registry.Counter("mpcf_net_faults_injected",
			"Wire faults injected by the configured fault plan (tests only).", rankLabel)
	}
	if o.Size == 1 {
		return e, nil // no listener, no rendezvous: a 1-rank world has no wire
	}
	if o.Coord == "" && o.CoordListener == nil {
		return nil, fmt.Errorf("transport: coordinator address required for size %d", o.Size)
	}

	// Data listener first so its address can be registered.
	ln, err := net.Listen("tcp", o.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport: rank %d data listener: %w", o.Rank, err)
	}
	dataAddr := advertiseAddr(ln.Addr().(*net.TCPAddr), o.Listen)

	// Rank 0 runs the coordinator concurrently with its own registration.
	coordErr := make(chan error, 1)
	coord := o.Coord
	if o.Rank == 0 {
		cln := o.CoordListener
		if cln == nil {
			if cln, err = net.Listen("tcp", o.Coord); err != nil {
				ln.Close()
				return nil, fmt.Errorf("transport: rank 0 coordinator listener: %w", err)
			}
		}
		coord = cln.Addr().String()
		go func() { coordErr <- runCoordinator(cln, o.Size, o.DialTimeout) }()
	}
	addrs, err := register(coord, o.Rank, dataAddr, o.DialTimeout)
	if err != nil {
		ln.Close()
		return nil, err
	}
	if len(addrs) != o.Size {
		ln.Close()
		return nil, fmt.Errorf("transport: peer table has %d entries, want %d", len(addrs), o.Size)
	}
	e.addrs = addrs

	// Mesh construction. Lower ranks accept from higher ranks; this rank
	// dials every lower rank. Both run concurrently — with deadlines, a
	// stuck peer fails the whole setup rather than hanging it.
	deadline := time.Now().Add(o.DialTimeout)
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // accept side: expect Size-1-Rank inbound connections
		defer wg.Done()
		for i := 0; i < o.Size-1-o.Rank; i++ {
			conn, err := ln.Accept()
			if err != nil {
				fail(fmt.Errorf("transport: rank %d accept: %w", o.Rank, err))
				return
			}
			tc := conn.(*net.TCPConn)
			tc.SetDeadline(deadline)
			peer, prn, err := readHandshake(tc)
			if err != nil || peer <= o.Rank || peer >= o.Size {
				if err == nil {
					err = fmt.Errorf("unexpected peer rank %d", peer)
				}
				tc.Close()
				fail(fmt.Errorf("transport: rank %d inbound handshake: %w", o.Rank, err))
				return
			}
			if err := writeHandshake(tc, o.Rank, 0); err != nil {
				tc.Close()
				fail(fmt.Errorf("transport: rank %d handshake reply to %d: %w", o.Rank, peer, err))
				return
			}
			tc.SetDeadline(time.Time{})
			if !e.addPeer(peer, tc, prn) {
				tc.Close()
				fail(fmt.Errorf("transport: duplicate connection from rank %d", peer))
				return
			}
		}
	}()
	for lower := 0; lower < o.Rank; lower++ {
		wg.Add(1)
		go func(lower int) { // dial side: connect to every lower rank
			defer wg.Done()
			conn, err := dialRetry(addrs[lower], time.Until(deadline))
			if err != nil {
				fail(fmt.Errorf("transport: rank %d dialing rank %d: %w", o.Rank, lower, err))
				return
			}
			tc := conn.(*net.TCPConn)
			tc.SetDeadline(deadline)
			var peer int
			var prn uint64
			if err := writeHandshake(tc, o.Rank, 0); err == nil {
				if peer, prn, err = readHandshake(tc); err == nil && peer != lower {
					err = fmt.Errorf("dialed rank %d but peer announced %d", lower, peer)
				}
			}
			if err != nil {
				tc.Close()
				fail(fmt.Errorf("transport: rank %d handshake with rank %d: %w", o.Rank, lower, err))
				return
			}
			tc.SetDeadline(time.Time{})
			if !e.addPeer(lower, tc, prn) {
				tc.Close()
				fail(fmt.Errorf("transport: duplicate connection to rank %d", lower))
			}
		}(lower)
	}
	wg.Wait()
	if o.Rank == 0 {
		if err := <-coordErr; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		ln.Close()
		e.teardown()
		return nil, firstErr
	}
	// The data listener stays open for the life of the endpoint: it is the
	// door through which higher-ranked peers redial after a connection
	// failure.
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(time.Time{})
	}
	e.ln = ln
	e.acceptWG.Add(1)
	go e.acceptLoop()
	for _, p := range e.peers {
		if p != nil {
			e.supWG.Add(1)
			go e.supervise(p, p.conn, p.initPRN)
		}
	}
	return e, nil
}

// advertiseAddr turns the bound listener address into one peers can dial:
// a wildcard-host bind advertises loopback (single-host default) unless an
// explicit host was configured.
func advertiseAddr(bound *net.TCPAddr, listen string) string {
	if host, _, err := net.SplitHostPort(listen); err == nil && host != "" && host != "0.0.0.0" && host != "::" {
		return net.JoinHostPort(host, fmt.Sprint(bound.Port))
	}
	if bound.IP == nil || bound.IP.IsUnspecified() {
		return net.JoinHostPort("127.0.0.1", fmt.Sprint(bound.Port))
	}
	return bound.String()
}

func (e *tcpEndpoint) addPeer(rank int, conn *net.TCPConn, peerRecvNext uint64) bool {
	p := &peerConn{
		rank:     rank,
		conn:     conn,
		out:      make(chan outFrame, sendQueue),
		accepted: make(chan acceptedConn, 1),
		done:     make(chan struct{}),
		ackPing:  make(chan struct{}, 1),
		initPRN:  peerRecvNext,
	}
	conn.SetNoDelay(true)
	if e.opts.Registry != nil {
		p.latency = e.opts.Registry.Histogram("mpcf_net_frame_latency_seconds",
			"Per-peer frame latency from send enqueue to socket flush.",
			telemetry.NetLatencyBuckets, telemetry.Labels{"peer": fmt.Sprint(rank)})
	}
	// peersMu guards only mesh-construction publication; the steady state
	// (after DialTCP returns) reads peers without locks.
	e.peersMu.Lock()
	defer e.peersMu.Unlock()
	if e.peers[rank] != nil {
		return false
	}
	e.peers[rank] = p
	return true
}

// acceptLoop admits peer redials for the life of the endpoint. It exits
// when Close/Abort shuts the listener.
func (e *tcpEndpoint) acceptLoop() {
	defer e.acceptWG.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return
		}
		e.acceptWG.Add(1)
		go e.admitReconnect(conn.(*net.TCPConn))
	}
}

// admitReconnect handshakes an inbound redial and hands the fresh
// connection to the peer's supervisor, displacing any stale one.
func (e *tcpEndpoint) admitReconnect(tc *net.TCPConn) {
	defer e.acceptWG.Done()
	tc.SetDeadline(time.Now().Add(10 * time.Second))
	peer, prn, err := readHandshake(tc)
	if err != nil || peer <= e.opts.Rank || peer >= e.opts.Size {
		tc.Close()
		return
	}
	p := e.peers[peer]
	if p == nil || p.failed.Load() || e.shutdown.Load() {
		tc.Close()
		return
	}
	p.mu.Lock()
	rn := p.recvNext
	p.mu.Unlock()
	if err := writeHandshake(tc, e.opts.Rank, rn); err != nil {
		tc.Close()
		return
	}
	tc.SetDeadline(time.Time{})
	tc.SetNoDelay(true)
	ac := acceptedConn{conn: tc, peerRecvNext: prn}
	for {
		select {
		case p.accepted <- ac:
			return
		default:
		}
		select {
		case stale := <-p.accepted:
			stale.conn.Close()
		default:
		}
	}
}

// supervise owns the link to one peer: it runs the reader/writer pair over
// the current connection and, when the connection fails for any reason
// (injected reset, CRC poisoning, sequence gap, ack stall, peer silence),
// re-establishes it and replays the resend window. It exits on a completed
// graceful shutdown, endpoint teardown, or an unrecoverable peer failure.
func (e *tcpEndpoint) supervise(p *peerConn, conn *net.TCPConn, peerRecvNext uint64) {
	defer e.supWG.Done()
	defer close(p.done)
	for {
		p.mu.Lock()
		p.conn = conn
		p.mu.Unlock()
		// The handshake's recv_next is a cumulative ack: trim the resend
		// window before the writer replays the remainder.
		p.advanceAck(peerRecvNext)
		clean, err := e.runConn(p, conn)
		conn.Close()
		if clean || e.shutdownDone(p) || e.shutdown.Load() {
			return
		}
		e.reconnects.Inc()
		var nerr error
		conn, peerRecvNext, nerr = e.reestablish(p)
		if nerr != nil {
			if e.shutdown.Load() {
				return
			}
			e.peerFail(p, fmt.Errorf("transport: rank %d: peer rank %d lost: %v (last connection error: %v)",
				e.opts.Rank, p.rank, nerr, err))
			return
		}
	}
}

// runConn drives one connection until graceful completion or the first
// failure on either direction. clean means the graceful FIN exchange
// finished on this connection.
func (e *tcpEndpoint) runConn(p *peerConn, conn *net.TCPConn) (bool, error) {
	stop := make(chan struct{})
	var mu sync.Mutex
	var firstErr error
	failed := false
	fail := func(err error) {
		mu.Lock()
		if !failed {
			failed = true
			firstErr = err
			close(stop)
			conn.Close() // unstick both loops
		}
		mu.Unlock()
	}
	var readerClean, writerClean bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		readerClean = e.connReader(p, conn, fail)
	}()
	go func() {
		defer wg.Done()
		writerClean = e.connWriter(p, conn, stop, fail)
	}()
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return readerClean && writerClean && !failed, firstErr
}

// shutdownDone reports whether the graceful shutdown with this peer has
// fully completed: our FIN sequenced and acked, the peer's FIN delivered.
func (e *tcpEndpoint) shutdownDone(p *peerConn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.finQueued && len(p.unacked) == 0 && p.peerFIN
}

// connReader demultiplexes inbound frames: data is checked against the
// expected sequence number (behind dup-drop, ahead poisons the connection),
// delivered in order exactly once, and acknowledged via the writer.
func (e *tcpEndpoint) connReader(p *peerConn, conn *net.TCPConn, fail func(error)) bool {
	br := bufio.NewReaderSize(conn, 256<<10)
	for {
		conn.SetReadDeadline(time.Now().Add(e.opts.PeerTimeout))
		src, tag, seq, payload, err := readFrame(br, e.opts.MaxFrame)
		if err != nil {
			if errors.Is(err, ErrChecksum) {
				e.crcErrors.Inc()
			}
			if err == io.EOF {
				if e.shutdownDone(p) || e.shutdown.Load() {
					return true
				}
				err = errors.New("connection closed without FIN")
			}
			fail(fmt.Errorf("transport: rank %d read from rank %d: %w", e.opts.Rank, p.rank, err))
			return false
		}
		if int(src) != p.rank {
			fail(fmt.Errorf("transport: rank %d: frame from rank %d arrived on rank %d's connection", e.opts.Rank, src, p.rank))
			return false
		}
		switch {
		case tag == tagACK:
			p.advanceAck(seq)
		case tag == tagHB:
			// Nothing to do: the read itself refreshed the liveness deadline.
		case tag == tagFIN || tag < TagReserved:
			p.mu.Lock()
			want := p.recvNext
			switch {
			case seq < want:
				p.mu.Unlock()
				e.dupDropped.Inc()
				p.ping() // re-ack so a replaying peer stops resending
			case seq > want:
				p.mu.Unlock()
				fail(fmt.Errorf("transport: rank %d: sequence gap from rank %d (got %d, want %d): frame lost in flight", e.opts.Rank, p.rank, seq, want))
				return false
			default:
				p.recvNext++
				if tag == tagFIN {
					p.peerFIN = true
					p.mu.Unlock()
				} else {
					p.mu.Unlock()
					e.bytesRecv.Add(int64(frameHeader + len(payload)))
					var span telemetry.Span
					if e.opts.Tracer != nil {
						span = e.opts.Tracer.StartSpan("net_recv", e.opts.Rank, 1<<11|p.rank)
					}
					e.deliver(int(src), int(tag), payload)
					span.End()
				}
				p.ping()
			}
		default:
			// Unknown reserved tag: tolerated for forward compatibility.
		}
	}
}

// connWriter drains p.out into the connection, assigning sequence numbers
// at dequeue and parking every sent frame in the resend window until the
// peer's cumulative ack passes it. On a fresh connection it first replays
// the window (retransmissions are exempt from fault injection). It also
// emits acks on the reader's behalf, heartbeats on idle, and the ack-stall
// check that turns a silently broken link into a recovery.
func (e *tcpEndpoint) connWriter(p *peerConn, conn *net.TCPConn, stop <-chan struct{}, fail func(error)) bool {
	bw := bufio.NewWriterSize(conn, 256<<10)
	fatal := func(err error) bool {
		fail(fmt.Errorf("transport: rank %d write to rank %d: %w", e.opts.Rank, p.rank, err))
		return false
	}

	p.mu.Lock()
	p.ackSent = 0 // re-ack from scratch: the previous conn's acks may be lost
	replay := make([]wireFrame, len(p.unacked))
	copy(replay, p.unacked)
	now := time.Now()
	for i := range p.unacked {
		p.unacked[i].sentAt = now
	}
	p.mu.Unlock()
	for _, f := range replay {
		e.retransmits.Inc()
		if err := e.writeWire(bw, conn, f.tag, f.seq, f.payload); err != nil {
			return fatal(err)
		}
	}
	if err := e.maybeAck(p, conn, bw); err != nil {
		return fatal(err)
	}
	if err := bw.Flush(); err != nil {
		return fatal(err)
	}

	hb := e.opts.HeartbeatInterval
	tick := e.opts.RetransmitTimeout / 4
	if hb > 0 && (tick <= 0 || hb < tick) {
		tick = hb
	}
	if tick <= 0 {
		tick = time.Second
	}
	if tick < 2*time.Millisecond {
		tick = 2 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()

	var held *wireFrame     // reorder-fault frame awaiting its successor
	var pending []time.Time // enqueue stamps of unflushed frames
	lastWrite := time.Now()
	flush := func() bool {
		if err := bw.Flush(); err != nil {
			return fatal(err)
		}
		if p.latency != nil {
			fnow := time.Now()
			for _, enq := range pending {
				p.latency.Observe(fnow.Sub(enq).Seconds())
			}
		}
		pending = pending[:0]
		return true
	}

	for {
		// Gate: stop pulling frames while the resend window is full (acks
		// reopen it) or after Close drained the queue.
		src := p.out
		p.mu.Lock()
		if p.outClosed || len(p.unacked) >= resendQueue {
			src = nil
		}
		ready := p.finQueued && len(p.unacked) == 0 && p.peerFIN
		p.mu.Unlock()
		if ready {
			// Graceful shutdown complete both ways: ack the peer's FIN and
			// half-close so its reader sees a clean EOF.
			if err := e.maybeAck(p, conn, bw); err != nil {
				return fatal(err)
			}
			if err := bw.Flush(); err != nil {
				return fatal(err)
			}
			conn.CloseWrite()
			return true
		}

		select {
		case <-stop:
			return false
		case f, ok := <-src:
			if !ok {
				p.mu.Lock()
				p.outClosed = true
				p.mu.Unlock()
				continue
			}
			if err := e.writeData(p, conn, bw, p.assign(f), &held); err != nil {
				return fatal(err)
			}
			pending = append(pending, f.enq)
			// Coalesce whatever is ready right now into the same flush —
			// small ghost-halo faces batch into single syscalls under load.
		coalesce:
			for {
				p.mu.Lock()
				full := len(p.unacked) >= resendQueue
				p.mu.Unlock()
				if full {
					break
				}
				select {
				case g, ok := <-p.out:
					if !ok {
						p.mu.Lock()
						p.outClosed = true
						p.mu.Unlock()
						break coalesce
					}
					if err := e.writeData(p, conn, bw, p.assign(g), &held); err != nil {
						return fatal(err)
					}
					pending = append(pending, g.enq)
				default:
					break coalesce
				}
			}
			if err := e.maybeAck(p, conn, bw); err != nil {
				return fatal(err)
			}
			if !flush() {
				return false
			}
			lastWrite = time.Now()
		case <-p.ackPing:
			if err := e.maybeAck(p, conn, bw); err != nil {
				return fatal(err)
			}
			if !flush() {
				return false
			}
		case <-ticker.C:
			if held != nil { // complete a dangling reorder: nothing followed it
				h := *held
				held = nil
				if err := e.writeWire(bw, conn, h.tag, h.seq, h.payload); err != nil {
					return fatal(err)
				}
				if !flush() {
					return false
				}
				lastWrite = time.Now()
			}
			p.mu.Lock()
			var oldest time.Time
			if len(p.unacked) > 0 {
				oldest = p.unacked[0].sentAt
			}
			p.mu.Unlock()
			if rt := e.opts.RetransmitTimeout; rt > 0 && !oldest.IsZero() && time.Since(oldest) > rt {
				fail(fmt.Errorf("transport: rank %d: rank %d stopped acknowledging (oldest frame outstanding %v)",
					e.opts.Rank, p.rank, time.Since(oldest).Round(time.Millisecond)))
				return false
			}
			if hb > 0 && time.Since(lastWrite) >= hb {
				if err := e.writeWire(bw, conn, tagHB, 0, nil); err != nil {
					return fatal(err)
				}
				if !flush() {
					return false
				}
				lastWrite = time.Now()
			}
		}
	}
}

// assign stamps an outgoing frame with its sequence number and parks it in
// the resend window. Called only by the writer, immediately before the
// write attempt, so replay order always matches sequence order.
func (p *peerConn) assign(f outFrame) wireFrame {
	p.mu.Lock()
	defer p.mu.Unlock()
	wf := wireFrame{tag: f.tag, seq: p.nextSeq, payload: f.payload, sentAt: time.Now()}
	p.nextSeq++
	if f.tag == tagFIN {
		p.finQueued = true
	}
	p.unacked = append(p.unacked, wf)
	return wf
}

// advanceAck trims the resend window up to (excluding) the peer's
// cumulative ack and wakes the writer (the window gate may have reopened).
func (p *peerConn) advanceAck(upto uint64) {
	p.mu.Lock()
	i := 0
	for i < len(p.unacked) && p.unacked[i].seq < upto {
		i++
	}
	if i > 0 {
		n := copy(p.unacked, p.unacked[i:])
		tail := p.unacked[n:]
		for j := range tail {
			tail[j] = wireFrame{} // drop payload references
		}
		p.unacked = p.unacked[:n]
	}
	p.mu.Unlock()
	if i > 0 {
		p.ping()
	}
}

// ping nudges the writer without blocking (delivery advanced, ack due, or
// the resend window reopened).
func (p *peerConn) ping() {
	select {
	case p.ackPing <- struct{}{}:
	default:
	}
}

// maybeAck writes a cumulative ack if delivery has advanced past the last
// ack sent on this connection.
func (e *tcpEndpoint) maybeAck(p *peerConn, conn *net.TCPConn, bw *bufio.Writer) error {
	p.mu.Lock()
	rn := p.recvNext
	send := rn > p.ackSent
	if send {
		p.ackSent = rn
	}
	p.mu.Unlock()
	if !send {
		return nil
	}
	return e.writeWire(bw, conn, tagACK, rn, nil)
}

// writeWire emits one frame verbatim.
func (e *tcpEndpoint) writeWire(bw *bufio.Writer, conn *net.TCPConn, tag uint32, seq uint64, payload []byte) error {
	var hdr [frameHeader]byte
	putFrameHeader(&hdr, uint32(len(payload)), uint32(e.opts.Rank), tag, seq, payload)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := bw.Write(payload); err != nil {
			return err
		}
	}
	e.bytesSent.Add(int64(frameHeader + len(payload)))
	return nil
}

// writeWireFlipped emits a frame whose header (CRC included) describes the
// pristine payload but whose payload bytes carry one inverted bit — the
// shared payload slice itself is never mutated.
func (e *tcpEndpoint) writeWireFlipped(bw *bufio.Writer, conn *net.TCPConn, f wireFrame, bit uint64) error {
	var hdr [frameHeader]byte
	putFrameHeader(&hdr, uint32(len(f.payload)), uint32(e.opts.Rank), f.tag, f.seq, f.payload)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	idx := int(bit % uint64(len(f.payload)*8))
	byteIdx, mask := idx/8, byte(1)<<(idx%8)
	if _, err := bw.Write(f.payload[:byteIdx]); err != nil {
		return err
	}
	if err := bw.WriteByte(f.payload[byteIdx] ^ mask); err != nil {
		return err
	}
	if _, err := bw.Write(f.payload[byteIdx+1:]); err != nil {
		return err
	}
	e.bytesSent.Add(int64(frameHeader + len(f.payload)))
	return nil
}

// writeData emits one freshly sequenced frame, routed through the fault
// injector when one is configured. Every fault leaves the frame parked in
// the resend window, so recovery — dedup, gap detection, ack-stall, replay
// — makes it invisible to the layer above.
func (e *tcpEndpoint) writeData(p *peerConn, conn *net.TCPConn, bw *bufio.Writer, f wireFrame, held **wireFrame) error {
	if *held != nil && f.tag == tagFIN {
		// Never reorder past FIN: release the held frame first.
		h := **held
		*held = nil
		if err := e.writeWire(bw, conn, h.tag, h.seq, h.payload); err != nil {
			return err
		}
	}
	var dec FaultDecision
	if e.opts.Fault != nil && f.tag < TagReserved {
		dec = e.opts.Fault.Outgoing(p.rank, int(f.tag), len(f.payload))
	}
	switch dec.Action {
	case FaultDrop:
		e.faultsInjected.Inc()
		return nil // stays in the window; gap or ack-stall recovers it
	case FaultDup:
		e.faultsInjected.Inc()
		if err := e.writeWire(bw, conn, f.tag, f.seq, f.payload); err != nil {
			return err
		}
		return e.writeWire(bw, conn, f.tag, f.seq, f.payload)
	case FaultReorder:
		e.faultsInjected.Inc()
		if *held != nil {
			h := **held
			if err := e.writeWire(bw, conn, h.tag, h.seq, h.payload); err != nil {
				return err
			}
		}
		cp := f
		*held = &cp
		return nil
	case FaultFlip:
		e.faultsInjected.Inc()
		if len(f.payload) > 0 {
			return e.writeWireFlipped(bw, conn, f, dec.FlipBit)
		}
	case FaultReset:
		e.faultsInjected.Inc()
		werr := e.writeWire(bw, conn, f.tag, f.seq, f.payload)
		if werr == nil {
			werr = bw.Flush()
		}
		conn.SetLinger(0)
		conn.Close()
		if werr != nil {
			return werr
		}
		return errors.New("injected connection reset")
	case FaultDelay:
		e.faultsInjected.Inc()
		time.Sleep(dec.Delay)
	}
	if err := e.writeWire(bw, conn, f.tag, f.seq, f.payload); err != nil {
		return err
	}
	if *held != nil { // the successor is on the wire: emit the held frame
		h := **held
		*held = nil
		return e.writeWire(bw, conn, h.tag, h.seq, h.payload)
	}
	return nil
}

// reestablish recovers the connection to a peer after a failure. The rank
// that dialed originally redials; the rank that accepted waits for the
// redial through the standing data listener. Bounded by PeerTimeout and
// MaxReconnect — exhausting either declares the peer lost.
func (e *tcpEndpoint) reestablish(p *peerConn) (*net.TCPConn, uint64, error) {
	if e.opts.MaxReconnect < 0 {
		return nil, 0, errors.New("reconnect disabled")
	}
	deadline := time.Now().Add(e.opts.PeerTimeout)
	if p.rank < e.opts.Rank {
		var lastErr error
		for attempt := 0; attempt < e.opts.MaxReconnect; attempt++ {
			if e.shutdown.Load() {
				return nil, 0, ErrClosed
			}
			budget := time.Until(deadline)
			if budget <= 0 {
				break
			}
			if budget > 2*time.Second {
				budget = 2 * time.Second
			}
			conn, err := dialRetry(e.addrs[p.rank], budget)
			if err != nil {
				lastErr = err
				continue
			}
			tc := conn.(*net.TCPConn)
			tc.SetDeadline(time.Now().Add(5 * time.Second))
			p.mu.Lock()
			rn := p.recvNext
			p.mu.Unlock()
			var peer int
			var prn uint64
			if err = writeHandshake(tc, e.opts.Rank, rn); err == nil {
				if peer, prn, err = readHandshake(tc); err == nil && peer != p.rank {
					err = fmt.Errorf("redialed rank %d but peer announced %d", p.rank, peer)
				}
			}
			if err != nil {
				lastErr = err
				tc.Close()
				continue
			}
			tc.SetDeadline(time.Time{})
			tc.SetNoDelay(true)
			return tc, prn, nil
		}
		if lastErr == nil {
			lastErr = fmt.Errorf("no redial succeeded within %v", e.opts.PeerTimeout)
		}
		return nil, 0, lastErr
	}
	for {
		if e.shutdown.Load() {
			return nil, 0, ErrClosed
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			return nil, 0, fmt.Errorf("rank %d did not redial within %v", p.rank, e.opts.PeerTimeout)
		}
		if wait > 100*time.Millisecond {
			wait = 100 * time.Millisecond
		}
		select {
		case ac := <-p.accepted:
			return ac.conn, ac.peerRecvNext, nil
		case <-time.After(wait):
		}
	}
}

// peerFail marks a peer permanently unreachable: Sends to it fail fast, a
// drain keeps already-blocked Sends from hanging, and the failure escalates
// through OnError exactly once.
func (e *tcpEndpoint) peerFail(p *peerConn, err error) {
	p.failed.Store(true)
	p.drainOnce.Do(func() {
		ch := p.out
		go func() {
			for range ch {
			}
		}()
	})
	e.reportError(err)
}

func (e *tcpEndpoint) Rank() int { return e.opts.Rank }
func (e *tcpEndpoint) Size() int { return e.opts.Size }

func (e *tcpEndpoint) Send(dst, tag int, payload []byte) error {
	if dst < 0 || dst >= e.opts.Size {
		return fmt.Errorf("transport: send to invalid rank %d", dst)
	}
	if uint32(tag) >= TagReserved {
		return fmt.Errorf("transport: tag %#x is in the reserved control namespace", tag)
	}
	if len(payload) > e.opts.MaxFrame {
		return fmt.Errorf("transport: payload of %d bytes exceeds frame limit %d", len(payload), e.opts.MaxFrame)
	}
	if e.closed.Load() {
		return ErrClosed
	}
	if dst == e.opts.Rank {
		e.deliver(dst, tag, payload) // self-send short-circuits the wire
		return nil
	}
	p := e.peers[dst]
	if p.failed.Load() {
		return fmt.Errorf("transport: rank %d unreachable (peer failed)", dst)
	}
	var span telemetry.Span
	if e.opts.Tracer != nil {
		span = e.opts.Tracer.StartSpan("net_send", e.opts.Rank, 1<<10|dst)
	}
	p.out <- outFrame{tag: uint32(tag), payload: payload, enq: time.Now()}
	span.End()
	return nil
}

// Close performs the graceful shutdown: FIN to every peer (sequenced, so it
// survives reconnects and arrives exactly once), then wait — bounded by
// closeTimeout — for every FIN exchange to complete so in-flight frames in
// both directions are fully delivered.
func (e *tcpEndpoint) Close() error {
	e.closeOnce.Do(func() {
		e.closed.Store(true)
		deadline := time.Now().Add(closeTimeout)
		for _, p := range e.peers {
			if p == nil {
				continue
			}
			p.out <- outFrame{tag: tagFIN}
			close(p.out)
		}
		for _, p := range e.peers {
			if p == nil {
				continue
			}
			wait := time.Until(deadline)
			if wait < 0 {
				wait = 0
			}
			select {
			case <-p.done:
			case <-time.After(wait):
				if e.closeErr == nil {
					e.closeErr = fmt.Errorf("transport: rank %d: close timed out waiting for rank %d", e.opts.Rank, p.rank)
				}
				e.shutdown.Store(true)
				p.forceClose()
				<-p.done
			}
		}
		e.shutdown.Store(true)
		if e.ln != nil {
			e.ln.Close()
		}
		e.acceptWG.Wait()
		e.supWG.Wait()
	})
	return e.closeErr
}

// Abort hard-kills the endpoint: no FIN, no drain — from the peers'
// perspective this rank crashed mid-step. The chaos suite uses it to prove
// failure detection; production code always prefers Close.
func (e *tcpEndpoint) Abort() {
	e.closeOnce.Do(func() {
		e.closed.Store(true)
		e.shutdown.Store(true)
		e.closeErr = ErrClosed
		if e.ln != nil {
			e.ln.Close()
		}
		for _, p := range e.peers {
			if p == nil {
				continue
			}
			p.failed.Store(true)
			p.drainOnce.Do(func() {
				ch := p.out
				go func() {
					for range ch {
					}
				}()
			})
			p.forceClose()
		}
		e.acceptWG.Wait()
		e.supWG.Wait()
	})
}

// forceClose tears down the peer's live connection and any admitted redial.
func (p *peerConn) forceClose() {
	p.mu.Lock()
	c := p.conn
	p.mu.Unlock()
	if c != nil {
		c.Close()
	}
	select {
	case ac := <-p.accepted:
		ac.conn.Close()
	default:
	}
}

// teardown releases a partially built mesh after a setup failure.
func (e *tcpEndpoint) teardown() {
	for _, p := range e.peers {
		if p != nil {
			p.conn.Close()
		}
	}
}

// reportError escalates the first unrecoverable failure. Failures during a
// deliberate teardown surface through Close's return value instead.
func (e *tcpEndpoint) reportError(err error) {
	if e.closed.Load() {
		return
	}
	e.failOnce.Do(func() {
		if e.opts.OnError != nil {
			e.opts.OnError(err)
		}
	})
}
