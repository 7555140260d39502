package mpi

import (
	"fmt"
	"os"

	"cubism/internal/transport"
)

// TCPConfig configures one process's attachment to a distributed world
// over the tcp transport: it is the transport's own option set (zero
// values take the transport defaults). ConnectTCP wraps OnError so the
// local mailbox is poisoned first — blocked receives then panic with the
// failure instead of hanging forever — and, when OnError is nil, crashes
// the process with exit code 3 and checkpoint-restart guidance: a rank
// whose peer is gone cannot make progress, and MPI's own convention is to
// abort the job.
type TCPConfig = transport.TCPOptions

// ConnectTCP joins (or, for rank 0, convenes) a distributed world: it
// performs the rendezvous, builds the full peer mesh and returns a World
// holding this process's single local rank. The returned world's Run
// executes the body once, then barriers and closes the wire gracefully.
func ConnectTCP(cfg TCPConfig) (*World, error) {
	if cfg.Size <= 0 || cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, fmt.Errorf("mpi: invalid rank %d of %d", cfg.Rank, cfg.Size)
	}
	w := &World{
		size:  cfg.Size,
		local: cfg.Rank,
		boxes: make([]*mailbox, cfg.Size),
		eps:   make([]transport.Endpoint, cfg.Size),
	}
	box := newMailbox()
	w.boxes[cfg.Rank] = box
	userErr := cfg.OnError
	cfg.OnError = func(err error) {
		// Poison first: any receive blocked on the dead peer panics with
		// the failure instead of hanging, whatever the handler does next.
		box.poison(err)
		if userErr != nil {
			userErr(err)
			return
		}
		fmt.Fprintf(os.Stderr,
			"mpi: fatal wire failure: %v\nmpi: rank %d aborting; restart the job from the last checkpoint (mpcf-sim -restore <checkpoint.bin>)\n",
			err, cfg.Rank)
		os.Exit(3)
	}
	ep, err := transport.DialTCP(cfg, box.deliver)
	if err != nil {
		return nil, err
	}
	w.eps[cfg.Rank] = ep
	return w, nil
}
