package relops

import (
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
)

// rankCut is the top-k pass over a descending-value-sorted relation: it
// keeps the first k real records of a (by oblivious inclusive prefix rank)
// and drops everything else to fillers. Ties in Val are broken
// deterministically but arbitrarily (by network position). k is public —
// it is part of the query, not the data.
//
// A record with Val == 0 shares the descending sort key obliv.InfKey with
// the fillers, so survivors are selected by oblivious rank rather than by
// position: within the tied tail a filler may precede a real record, which
// every pass in this package tolerates (fillers carry the InfKey sentinel
// in every schedule word).
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
