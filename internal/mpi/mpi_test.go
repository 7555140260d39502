package mpi

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

func TestPointToPoint(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() - 1 + c.Size()) % c.Size()
		c.Isend(next, 1, []float32{float32(c.Rank())})
		got := c.Recv(prev, 1)
		if int(got[0]) != prev {
			t.Errorf("rank %d received %v, want %d", c.Rank(), got, prev)
		}
	})
}

func TestTagMatching(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			// Send out of order; receiver matches by tag.
			c.Send(1, 20, []float32{20})
			c.Send(1, 10, []float32{10})
		} else {
			a := c.Recv(0, 10)
			b := c.Recv(0, 20)
			if a[0] != 10 || b[0] != 20 {
				t.Errorf("tag matching failed: %v %v", a, b)
			}
		}
	})
}

func TestIrecvBeforeSend(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			req := c.Irecv(1, 5)
			if got := req.Wait(); got[0] != 42 {
				t.Errorf("got %v", got)
			}
		} else {
			c.Send(0, 5, []float32{42})
		}
	})
}

func TestAllreduce(t *testing.T) {
	w := NewWorld(5)
	w.Run(func(c *Comm) {
		sum := c.Allreduce(float64(c.Rank()+1), SumOp)
		if sum != 15 {
			t.Errorf("sum = %g, want 15", sum)
		}
		maxV := c.Allreduce(float64(c.Rank()), MaxOp)
		if maxV != 4 {
			t.Errorf("max = %g, want 4", maxV)
		}
		minV := c.Allreduce(float64(c.Rank()), func(a, b float64) float64 { return -MaxOp(-a, -b) })
		if minV != 0 {
			t.Errorf("min = %g, want 0", minV)
		}
	})
}

func TestExscan(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		// Rank r contributes 10*(r+1); exclusive prefix of rank r is
		// sum_{i<r} 10*(i+1).
		got := c.Exscan(int64(10 * (c.Rank() + 1)))
		want := int64(0)
		for i := 0; i < c.Rank(); i++ {
			want += int64(10 * (i + 1))
		}
		if got != want {
			t.Errorf("rank %d exscan = %d, want %d", c.Rank(), got, want)
		}
	})
}

func TestBarrierOrdering(t *testing.T) {
	w := NewWorld(8)
	var before, violated atomic.Int32
	w.Run(func(c *Comm) {
		before.Add(1)
		c.Barrier()
		if before.Load() != 8 {
			violated.Add(1)
		}
	})
	if violated.Load() != 0 {
		t.Error("barrier released a rank before all arrived")
	}
}

func TestGather(t *testing.T) {
	w := NewWorld(3)
	w.Run(func(c *Comm) {
		vals := c.Gather(float64(c.Rank() * c.Rank()))
		want := []float64{0, 1, 4}
		for i := range want {
			if vals[i] != want[i] {
				t.Errorf("gather[%d] = %g, want %g", i, vals[i], want[i])
			}
		}
	})
}

func TestSendRecvInts(t *testing.T) {
	w := NewWorld(2)
	vals := []int64{0, 1, -1, 1 << 40, -(1 << 52), 123456789012345}
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.SendInts(1, 9, vals)
		} else {
			got := c.RecvInts(0, 9)
			for i := range vals {
				if got[i] != vals[i] {
					t.Errorf("ints[%d] = %d, want %d", i, got[i], vals[i])
				}
			}
		}
	})
}

func TestManyCollectives(t *testing.T) {
	// Exercise the collective slot GC across hundreds of calls.
	w := NewWorld(3)
	w.Run(func(c *Comm) {
		for i := 0; i < 300; i++ {
			if got := c.Allreduce(1, SumOp); got != 3 {
				t.Errorf("iteration %d: %g", i, got)
				return
			}
		}
	})
}

func TestCart(t *testing.T) {
	w := NewWorld(8)
	w.Run(func(c *Comm) {
		cart := NewCart(c, [3]int{2, 2, 2}, [3]bool{true, false, false})
		// Coordinates invert RankOf.
		if got := cart.RankOf(cart.Coords[0], cart.Coords[1], cart.Coords[2]); got != c.Rank() {
			t.Errorf("RankOf(coords) = %d, want %d", got, c.Rank())
		}
		// Periodic x wraps, non-periodic y does not.
		if cart.Coords[0] == 1 {
			if nb := cart.Neighbor(0, 1); nb != cart.RankOf(0, cart.Coords[1], cart.Coords[2]) {
				t.Errorf("periodic wrap failed: %d", nb)
			}
		}
		if cart.Coords[1] == 1 {
			if nb := cart.Neighbor(1, 1); nb != -1 {
				t.Errorf("non-periodic boundary returned %d", nb)
			}
		}
	})
}

func TestSharedFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shared.bin")
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		f, err := CreateShared(c, path)
		if err != nil {
			t.Error(err)
			return
		}
		// Each rank writes 8 bytes at its region, like a dump payload.
		buf := make([]byte, 8)
		for i := range buf {
			buf[i] = byte(c.Rank())
		}
		if _, err := f.WriteAt(buf, int64(c.Rank()*8)); err != nil {
			t.Error(err)
		}
		c.Barrier()
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 32 {
		t.Fatalf("file size %d, want 32", len(data))
	}
	for i, b := range data {
		if int(b) != i/8 {
			t.Fatalf("byte %d = %d, want %d", i, b, i/8)
		}
	}
}

func TestDeterministicReduction(t *testing.T) {
	// Rank-ordered reduction must be bit-reproducible across runs even with
	// random arrival order.
	run := func() float64 {
		w := NewWorld(6)
		var result atomic.Value
		w.Run(func(c *Comm) {
			rng := rand.New(rand.NewSource(int64(c.Rank())))
			x := rng.NormFloat64() * 1e-8
			// Jitter arrival.
			for i := 0; i < rng.Intn(1000); i++ {
				_ = i
			}
			r := c.Allreduce(x, SumOp)
			if c.Rank() == 0 {
				result.Store(r)
			}
		})
		return result.Load().(float64)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("reduction not deterministic: %g vs %g", a, b)
	}
}

func TestAnySource(t *testing.T) {
	w := NewWorld(3)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				// Source-agnostic receive must match both senders.
				msg := c.Recv(AnySource, 3)
				seen[int(msg[0])] = true
			}
			if !seen[1] || !seen[2] {
				t.Errorf("AnySource missed a sender: %v", seen)
			}
		} else {
			c.Send(0, 3, []float32{float32(c.Rank())})
		}
	})
}

func TestWaitAll(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			reqs := []*Request{c.Irecv(1, 1), c.Irecv(1, 2), nil}
			WaitAll(reqs)
			if reqs[0].Wait()[0] != 10 || reqs[1].Wait()[0] != 20 {
				t.Error("WaitAll delivered wrong payloads")
			}
		} else {
			c.Send(0, 2, []float32{20})
			c.Send(0, 1, []float32{10})
		}
	})
}
