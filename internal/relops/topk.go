package relops

import (
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
)

// TopK obliviously keeps the k records of r with the largest Val, leaving
// them at the front in descending value order, and returns the survivor
// count (min(k, #records); raw read, outside the adversary's view). Ties
// in Val are broken deterministically but arbitrarily (by network
// position). k is public — it is part of the query, not the data.
//
// Pipeline: one data-independent descending sort by value, an oblivious
// prefix-rank of the real records, and an elementwise pass keeping ranks
// <= k. A record with Val == 0 shares the descending sort key obliv.InfKey
// with the fillers, so survivors are selected by oblivious rank rather
// than by position: within the tied tail a filler may precede a real
// record, which every operator in this package tolerates (fillers carry
// the InfKey sentinel in every schedule word).
// ar supplies reusable scratch (nil = allocate fresh).
func TopK(c *forkjoin.Ctx, sp *mem.Space, ar *Arena, r Rel, k int, srt obliv.ScheduledSorter) int {
	sortSched(c, sp, ar, r.A, descValSched(), srt)
	rankCut(c, sp, ar, r.A, k)
	return countReal(r.A)
}

// rankCut keeps the first k real records of a (by oblivious inclusive
// prefix rank) and drops everything else to fillers — TopK minus its sort,
// reused by the fused executor on an already value-sorted relation.
func rankCut(c *forkjoin.Ctx, sp *mem.Space, ar *Arena, a *mem.Array[obliv.Elem], k int) {
	n := a.Len()
	rank := ar.Ranks(sp, n)
	forkjoin.ParallelRange(c, 0, n, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := a.Get(c, i)
			c.Op(1)
			var r uint64
			if e.Kind == obliv.Real {
				r = 1
			}
			rank.Set(c, i, r)
		}
	})
	obliv.PrefixSumU64(c, sp, rank, true)

	forkjoin.ParallelRange(c, 0, n, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := a.Get(c, i)
			r := rank.Get(c, i)
			c.Op(1)
			if e.Kind != obliv.Real || r > uint64(k) {
				e = obliv.Elem{}
			}
			a.Set(c, i, e)
		}
	})
}
