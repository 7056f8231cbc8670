package relops

import (
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
)

// topK keeps the k records of a that come first under descValSched — the
// k largest values, equal values by input position — at a[0:k) in that
// order, and turns every other slot into a filler. It is a bitonic
// tournament, not a sort. With K = NextPow2(min(k, n)):
//
//  1. the descValSched key schedule is built once;
//  2. the first log2 K stages of a bitonic sort leave the blocks of K
//     sorted in alternating directions (ascending, descending, ...);
//  3. log2(n/K) rounds each pair an ascending survivor block with the
//     descending one s slots to its right: one half-cleaner run keeps the
//     better K of the pair in the left block (a bitonic sequence), and a
//     log2 K-layer bitonic merge sorts it in the direction that makes the
//     next round's pairs ascending/descending again;
//  4. the cut turns every slot at index >= k into a filler.
//
// Step 2 is obliv.Stages and each round one obliv.Layer and one
// obliv.Merge, so every layer is one obliv.Layer: a single fork tree over
// its comparators in all blocks, never one per block or per position.
//
// That is O(n log² K) comparators against a full sort's O(n log² n), and
// every comparator's positions and direction are a function of (n, k)
// alone — k is part of the query, not the data — so the trace is too. a's
// length must be a power of two (Load pads every relation to one).
func topK(c *forkjoin.Ctx, sp *mem.Space, ar *Arena, a *mem.Array[obliv.Elem], k int) {
	n := a.Len()
	k = min(k, n) // before NextPow2, whose doubling overflows above 2^62
	K := obliv.NextPow2(k)
	sc := descValSched()
	ks := ar.Keys(sp, n, sc.w)
	obliv.BuildKeySchedule(c, a, ks, 0, n, sc.emit)

	kern := obliv.NewCexKernel(c, a, ks)
	obliv.Stages(c, kern, n, K)
	for s := K; s < n; s <<= 1 {
		c.Check("relops.topk")
		obliv.Layer(c, kern, 0, n/(2*s), 2*s, K, s, false)
		obliv.Merge(c, kern, 0, n/(2*s), 2*s, K, true)
	}

	cutFrom(c, a, k)
}

// cutFrom turns every slot of a at index >= k into a filler: one fixed
// write pass over a public range.
func cutFrom(c *forkjoin.Ctx, a *mem.Array[obliv.Elem], k int) {
	forkjoin.ParallelRange(c, k, a.Len(), passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			a.Set(c, i, obliv.Elem{})
		}
	})
}
