package sfc

import (
	"fmt"
	"math"
)

// Partition splits total blocks, taken in curve order, into nranks
// contiguous chunks of near-equal size. It returns the cut points as a
// slice of length nranks+1: rank r owns curve positions [cuts[r],
// cuts[r+1]). Every block is owned exactly once, the chunks are contiguous
// along the curve, and for this uniform-cost split the chunk sizes differ
// by at most one block.
func Partition(total, nranks int) []int {
	if nranks <= 0 || total < nranks {
		panic(fmt.Sprintf("sfc: cannot partition %d blocks into %d ranks", total, nranks))
	}
	cuts := make([]int, nranks+1)
	for r := 0; r <= nranks; r++ {
		cuts[r] = r * total / nranks
	}
	return cuts
}

// PartitionWeighted splits len(w) blocks with the given non-negative costs
// into nranks contiguous chunks whose cost sums track the uniform target
// sum(w)/nranks: the cut after chunk r is placed at the prefix position
// closest to the ideal prefix (r+1)·sum(w)/nranks, subject to every chunk
// holding at least one block. The result is deterministic — every rank
// computing it from the same weight vector derives the identical cuts, which
// is what lets the rebalancer skip a layout broadcast.
func PartitionWeighted(w []float64, nranks int) []int {
	n := len(w)
	if nranks <= 0 || n < nranks {
		panic(fmt.Sprintf("sfc: cannot partition %d weighted blocks into %d ranks", n, nranks))
	}
	var total float64
	for i, x := range w {
		if x < 0 || math.IsNaN(x) {
			panic(fmt.Sprintf("sfc: invalid block weight w[%d]=%v", i, x))
		}
		total += x
	}
	cuts := make([]int, nranks+1)
	cuts[nranks] = n
	i, acc := 0, 0.0
	for r := 0; r < nranks-1; r++ {
		cuts[r] = i
		target := total * float64(r+1) / float64(nranks)
		// Take one block unconditionally, then extend while the next block
		// brings the prefix at least as close to the ideal cut — leaving
		// every remaining rank at least one block.
		acc += w[i]
		i++
		limit := n - (nranks - r - 1)
		for i < limit && math.Abs(acc+w[i]-target) <= math.Abs(acc-target) {
			acc += w[i]
			i++
		}
	}
	cuts[nranks-1] = i
	return cuts
}
