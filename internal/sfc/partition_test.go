package sfc

import (
	"math/rand"
	"testing"
)

// checkCuts asserts the structural partition invariants: monotone cut
// points covering [0, total) — i.e. every curve position owned exactly once
// by exactly one contiguous chunk — with every chunk non-empty.
func checkCuts(t *testing.T, cuts []int, total, nranks int) {
	t.Helper()
	if len(cuts) != nranks+1 {
		t.Fatalf("got %d cut points, want %d", len(cuts), nranks+1)
	}
	if cuts[0] != 0 || cuts[nranks] != total {
		t.Fatalf("cuts %v do not span [0,%d]", cuts, total)
	}
	for r := 0; r < nranks; r++ {
		if cuts[r+1] <= cuts[r] {
			t.Fatalf("chunk %d empty or non-monotone: cuts %v", r, cuts)
		}
	}
}

func TestPartitionUniform(t *testing.T) {
	for _, tc := range []struct {
		nx, ny, nz, nranks int
	}{
		{1, 1, 1, 1}, {2, 2, 2, 2}, {2, 2, 2, 3}, {4, 4, 4, 5},
		{4, 4, 4, 64}, {3, 2, 5, 4}, {8, 8, 8, 7}, {2, 1, 2, 4},
	} {
		total := tc.nx * tc.ny * tc.nz
		cuts := Partition(total, tc.nranks)
		checkCuts(t, cuts, total, tc.nranks)
		// Uniform cost: chunk sizes within ±1 block of each other.
		minSz, maxSz := total, 0
		for r := 0; r < tc.nranks; r++ {
			sz := cuts[r+1] - cuts[r]
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
		}
		if maxSz-minSz > 1 {
			t.Errorf("%dx%dx%d over %d ranks: chunk sizes span [%d,%d], want ±1 (cuts %v)",
				tc.nx, tc.ny, tc.nz, tc.nranks, minSz, maxSz, cuts)
		}
	}
}

func TestPartitionOwnsEveryBlockOnce(t *testing.T) {
	nx, ny, nz, nranks := 4, 4, 4, 5
	c := ForBox(nx, ny, nz)
	cuts := Partition(nx*ny*nz, nranks)
	order := Enumerate(c, nx, ny, nz)
	owned := make(map[[3]int]int)
	for r := 0; r < nranks; r++ {
		for i := cuts[r]; i < cuts[r+1]; i++ {
			owned[order[i]]++
		}
	}
	if len(owned) != nx*ny*nz {
		t.Fatalf("owned %d distinct blocks, want %d", len(owned), nx*ny*nz)
	}
	for b, cnt := range owned {
		if cnt != 1 {
			t.Errorf("block %v owned %d times", b, cnt)
		}
	}
}

func TestPartitionTooFewBlocksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic partitioning 8 blocks into 9 ranks")
		}
	}()
	Partition(2*2*2, 9)
}

func TestPartitionWeightedProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		nranks := 1 + rng.Intn(n)
		w := make([]float64, n)
		for i := range w {
			w[i] = rng.Float64() * 10
		}
		// A sprinkle of zero-cost blocks exercises the tie-handling.
		if trial%3 == 0 {
			w[rng.Intn(n)] = 0
		}
		cuts := PartitionWeighted(w, nranks)
		checkCuts(t, cuts, n, nranks)
	}
}

func TestPartitionWeightedUniformMatchesPartition(t *testing.T) {
	w := make([]float64, 64)
	for i := range w {
		w[i] = 1
	}
	for nranks := 1; nranks <= 9; nranks++ {
		cuts := PartitionWeighted(w, nranks)
		checkCuts(t, cuts, len(w), nranks)
		minSz, maxSz := len(w), 0
		for r := 0; r < nranks; r++ {
			sz := cuts[r+1] - cuts[r]
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
		}
		if maxSz-minSz > 1 {
			t.Errorf("uniform weights over %d ranks: sizes span [%d,%d], want ±1 (cuts %v)",
				nranks, minSz, maxSz, cuts)
		}
	}
}

func TestPartitionWeightedSkewMovesCut(t *testing.T) {
	// One hot block at the front: the first chunk should shrink toward it.
	w := []float64{10, 1, 1, 1, 1, 1, 1, 1}
	cuts := PartitionWeighted(w, 2)
	checkCuts(t, cuts, len(w), 2)
	if cuts[1] > 2 {
		t.Errorf("hot front block: first chunk holds %d blocks, want ≤2 (cuts %v)", cuts[1], cuts)
	}
	// Deterministic: same inputs, same cuts.
	again := PartitionWeighted(w, 2)
	for i := range cuts {
		if cuts[i] != again[i] {
			t.Fatalf("non-deterministic cuts: %v vs %v", cuts, again)
		}
	}
}
