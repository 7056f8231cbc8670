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

	for p := 2; p <= K; p <<= 1 {
		for j := p >> 1; j > 0; j >>= 1 {
			cexLayer(c, a, ks, n/p, p, p/2, j, true)
		}
	}
	for s := K; s < n; s <<= 1 {
		c.Check("relops.topk")
		cexLayer(c, a, ks, n/(2*s), 2*s, K, s, false)
		for j := K >> 1; j > 0; j >>= 1 {
			cexLayer(c, a, ks, n/(2*s), 2*s, K/2, j, true)
		}
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

// cexLayer runs one layer of the tournament network as a single fork tree
// over its comparators. Block b (b < nb) starts at b·gap and holds cnt
// comparators; comparator u pairs the slot u/j·2j + u%j of the block with
// the slot j to its right, ascending — or, with alt, ascending only in
// even blocks. j is a power of two, and either j divides cnt (a butterfly
// layer) or cnt <= j (a half-cleaner run).
func cexLayer(c *forkjoin.Ctx, a *mem.Array[obliv.Elem], ks *obliv.KeySchedule, nb, gap, cnt, j int, alt bool) {
	forkjoin.ParallelRange(c, 0, nb*cnt, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		kern := obliv.NewCexKernel(c, a, ks)
		b, u := lo/cnt, lo%cnt
		for lo < hi {
			off := u & (j - 1)
			m := min(j-off, cnt-u, hi-lo)
			kern.Run(b*gap+(u-off)<<1+off, j, m, !alt || b&1 == 0)
			lo += m
			if u += m; u == cnt {
				b, u = b+1, 0
			}
		}
	})
}
