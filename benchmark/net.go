package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"cubism/internal/mpi"
	"cubism/internal/telemetry"
)

// mesh is a set of single-rank tcp worlds convened inside this process. A nil
// mesh stands for the inproc transport.
type mesh struct {
	worlds []*mpi.World

	mu   sync.Mutex
	errs []error // unrecoverable wire failures reported by the transport
}

// meshTCP convenes size single-rank worlds, meshed over loopback exactly as
// size mpcf-sim processes would be. The coordinator listener is bound to port
// 0 up front, so no port is guessed, and the transport closes it once every
// rank has registered. Wire failures are collected instead of ending the
// process from inside the library.
func meshTCP(size int, reg *telemetry.Registry) (*mesh, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("coordinator listener: %w", err)
	}
	m := &mesh{worlds: make([]*mpi.World, size)}
	connErrs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			cfg := mpi.TCPConfig{
				Rank: rank, Size: size, Coord: ln.Addr().String(),
				Listen: "127.0.0.1:0", Registry: reg, OnError: m.wireFailed,
			}
			if rank == 0 {
				cfg.CoordListener = ln
			}
			m.worlds[rank], connErrs[rank] = mpi.ConnectTCP(cfg)
		}(r)
	}
	wg.Wait()
	for r, err := range connErrs {
		if err != nil {
			return nil, fmt.Errorf("rank %d connect: %w", r, err)
		}
	}
	return m, nil
}

func (m *mesh) wireFailed(err error) {
	m.mu.Lock()
	m.errs = append(m.errs, err)
	m.mu.Unlock()
}

// err returns the first wire or shutdown failure of the mesh's worlds.
func (m *mesh) err() error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.errs) > 0 {
		return m.errs[0]
	}
	for _, w := range m.worlds {
		if err := w.Err(); err != nil {
			return err
		}
	}
	return nil
}

// run runs body once per rank and waits for all of them: one goroutine per
// single-rank world, each closing its wire when body returns, or a fresh
// in-process world of n ranks when the mesh is nil.
func (m *mesh) run(n int, body func(*mpi.Comm)) error {
	if m == nil {
		mpi.NewWorld(n).Run(body)
		return nil
	}
	var wg sync.WaitGroup
	for _, w := range m.worlds {
		wg.Add(1)
		go func(w *mpi.World) {
			defer wg.Done()
			w.Run(body)
		}(w)
	}
	wg.Wait()
	return m.err()
}

// probeMPI measures the wire under the halo exchange from outside: one-way
// latency of a face-halo-sized message, the scalar allreduce every step
// issues, and a one-way burst, on a two-rank world of either transport.
func probeMPI(transport string, m *mesh, haloBytes int, v values) error {
	const pings, reduces, burst = 200, 400, 64
	tagPing, tagPong := mpi.TagStream(1), mpi.TagStream(2)
	tagBurst, tagAck := mpi.TagStream(3), mpi.TagStream(4)
	payload := make([]byte, haloBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	return m.run(2, func(c *mpi.Comm) {
		peer := 1 - c.Rank()
		var pingUS, reduceUS []float64
		for i := 0; i < pings+10; i++ { // the first 10 settle the path
			t0 := time.Now()
			if c.Rank() == 0 {
				c.SendBytes(peer, tagPing, payload)
				c.RecvBytes(peer, tagPong)
			} else {
				c.SendBytes(peer, tagPong, c.RecvBytes(peer, tagPing))
			}
			if i >= 10 {
				// Half the round trip is the conventional one-way latency.
				pingUS = append(pingUS, time.Since(t0).Seconds()/2*1e6)
			}
		}
		for i := 0; i < reduces+10; i++ {
			t0 := time.Now()
			c.Allreduce(float64(i), mpi.MaxOp)
			if i >= 10 {
				reduceUS = append(reduceUS, time.Since(t0).Seconds()*1e6)
			}
		}
		t0 := time.Now()
		if c.Rank() == 0 {
			for i := 0; i < burst; i++ {
				c.SendBytes(peer, tagBurst, payload)
			}
			c.RecvBytes(peer, tagAck)
		} else {
			for i := 0; i < burst; i++ {
				c.RecvBytes(peer, tagBurst)
			}
			c.SendBytes(peer, tagAck, []byte{1})
		}
		if c.Rank() == 0 {
			v["mpi.pingpong_us_p50."+transport] = median(pingUS)
			v["mpi.allreduce_us_p50."+transport] = median(reduceUS)
			if transport == "tcp" {
				v["mpi.burst_mb_per_s.tcp"] = float64(burst*haloBytes) / 1e6 / time.Since(t0).Seconds()
			}
		}
	})
}
