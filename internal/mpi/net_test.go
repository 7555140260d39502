package mpi

import (
	"net"
	"sync"
	"testing"
)

// runWorlds executes body on a freshly built world for each transport under
// test and reports failures per transport: "inproc" is a size-rank
// in-process world, "tcp" is size single-rank worlds in this process meshed
// over a loopback socket pair — the same wiring mpcf-launch produces across
// processes, minus the fork.
func runWorlds(t *testing.T, size int, body func(c *Comm)) {
	t.Helper()
	t.Run("inproc", func(t *testing.T) {
		NewWorld(size).Run(body)
	})
	t.Run("tcp", func(t *testing.T) {
		worlds, errs := tcpWorlds(t, size)
		var wg sync.WaitGroup
		for r := 0; r < size; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				worlds[r].Run(body)
				errs[r] = worlds[r].Err()
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d world: %v", r, err)
			}
		}
	})
}

// tcpWorlds connects size single-rank TCP worlds over loopback with a
// pre-bound coordinator listener (no guessed ports).
func tcpWorlds(t *testing.T, size int) ([]*World, []error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord := ln.Addr().String()
	worlds := make([]*World, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			cfg := TCPConfig{
				Rank: rank, Size: size, Coord: coord,
				OnError: func(err error) { t.Errorf("rank %d wire: %v", rank, err) },
			}
			if rank == 0 {
				cfg.CoordListener = ln
			}
			worlds[rank], errs[rank] = ConnectTCP(cfg)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d connect: %v", r, err)
		}
	}
	return worlds, errs
}

func TestCollectivesSizeOne(t *testing.T) {
	runWorlds(t, 1, func(c *Comm) {
		if got := c.Allreduce(3.5, SumOp); got != 3.5 {
			t.Errorf("Allreduce at size 1 = %v, want 3.5", got)
		}
		if got := c.Exscan(7); got != 0 {
			t.Errorf("Exscan at size 1 = %d, want 0", got)
		}
		c.Barrier() // must not deadlock with no peers
		if got := c.Gather(2.25); len(got) != 1 || got[0] != 2.25 {
			t.Errorf("Gather at size 1 = %v, want [2.25]", got)
		}
	})
}

func TestCollectivesSizeTwo(t *testing.T) {
	runWorlds(t, 2, func(c *Comm) {
		x := float64(c.Rank() + 1) // rank 0 -> 1, rank 1 -> 2
		if got := c.Allreduce(x, SumOp); got != 3 {
			t.Errorf("rank %d: Allreduce sum = %v, want 3", c.Rank(), got)
		}
		if got := c.Allreduce(x, MaxOp); got != 2 {
			t.Errorf("rank %d: Allreduce max = %v, want 2", c.Rank(), got)
		}
		want := int64(0)
		if c.Rank() == 1 {
			want = 10
		}
		if got := c.Exscan(int64(10 * (c.Rank() + 1))); got != want {
			t.Errorf("rank %d: Exscan = %d, want %d", c.Rank(), got, want)
		}
		c.Barrier()
		g := c.Gather(x)
		if len(g) != 2 || g[0] != 1 || g[1] != 2 {
			t.Errorf("rank %d: Gather = %v, want [1 2]", c.Rank(), g)
		}
	})
}

func TestPointToPointBothTransports(t *testing.T) {
	runWorlds(t, 2, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, TagStream(1), []float32{1.5, -2.5, 3.25})
			got := c.Recv(1, TagStream(2))
			if len(got) != 2 || got[0] != 9 || got[1] != 10 {
				t.Errorf("rank 0 received %v", got)
			}
			c.SendInts(1, TagStream(3), []int64{-7, 1 << 40})
		case 1:
			got := c.Recv(0, TagStream(1))
			if len(got) != 3 || got[0] != 1.5 || got[1] != -2.5 || got[2] != 3.25 {
				t.Errorf("rank 1 received %v", got)
			}
			c.Send(0, TagStream(2), []float32{9, 10})
			ints := c.RecvInts(0, TagStream(3))
			if len(ints) != 2 || ints[0] != -7 || ints[1] != 1<<40 {
				t.Errorf("rank 1 received ints %v", ints)
			}
		}
	})
}

func TestDistributedWorldIdentity(t *testing.T) {
	worlds, _ := tcpWorlds(t, 2)
	if !worlds[0].Distributed() || worlds[0].LocalRank() != 0 {
		t.Fatalf("world 0: Distributed=%v LocalRank=%d", worlds[0].Distributed(), worlds[0].LocalRank())
	}
	if worlds[1].LocalRank() != 1 {
		t.Fatalf("world 1: LocalRank=%d", worlds[1].LocalRank())
	}
	if w := NewWorld(2); w.Distributed() {
		t.Fatal("in-process world claims to be distributed")
	}
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			worlds[r].Run(func(c *Comm) {
				if c.Rank() != r || c.Size() != 2 {
					t.Errorf("world %d body saw rank=%d size=%d", r, c.Rank(), c.Size())
				}
			})
		}(r)
	}
	wg.Wait()
	for r := 0; r < 2; r++ {
		if err := worlds[r].Err(); err != nil {
			t.Fatalf("rank %d close: %v", r, err)
		}
	}
}

func TestTagReusePanics(t *testing.T) {
	var panicked [2]bool
	NewWorld(2).Run(func(c *Comm) {
		c.tagCheck = true
		if c.Rank() == 1 {
			// Drain both sends so rank 0 isn't wedged if the panic is missed.
			c.Recv(0, TagStream(5))
			return
		}
		defer func() {
			if recover() != nil {
				panicked[0] = true
			}
		}()
		c.Send(1, TagStream(5), []float32{1})
		c.Send(1, TagStream(5), []float32{2}) // same (dst, tag) in one epoch
	})
	if !panicked[0] {
		t.Fatal("reusing a tag within an epoch did not panic with tag checking on")
	}
}

func TestTagEpochResetAllowsReuse(t *testing.T) {
	NewWorld(2).Run(func(c *Comm) {
		c.tagCheck = true
		if c.Rank() == 1 {
			c.Recv(0, TagStream(5))
			c.Recv(0, TagStream(5))
			return
		}
		c.Send(1, TagStream(5), []float32{1})
		c.BeginTagEpoch() // a halo cycle boundary: reuse is legal again
		c.Send(1, TagStream(5), []float32{2})
	})
}

func TestCollTagsExemptFromReuseCheck(t *testing.T) {
	// Collective seq tags wrap at 16 bits; they carry their own ordering
	// proof and must never trip the reuse assertion.
	NewWorld(2).Run(func(c *Comm) {
		c.tagCheck = true
		for i := 0; i < 3; i++ {
			if got := c.Allreduce(1, SumOp); got != 2 {
				t.Errorf("Allreduce = %v, want 2", got)
			}
		}
	})
}
