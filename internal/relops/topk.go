package relops

import (
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
)

// rankCut is the top-k pass over a descending-value-sorted relation: it
// keeps the first k real records of a (by oblivious inclusive prefix rank)
// and drops everything else to fillers. The value sort orders equal values
// by input position, earliest first, on every backend, so the survivors
// are the k largest values with ties kept in input order. k is public —
// it is part of the query, not the data.
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
