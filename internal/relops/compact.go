package relops

import (
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
)

// Compact is the oblivious Filter→tight-compaction operator: records
// satisfying pred move to the front of r in their original order, all other
// slots become fillers, and the survivor count is returned (computed
// outside the adversary's view).
//
// pred is evaluated once per record in a fixed elementwise pass; it must be
// a pure function of the record (register arithmetic only — it is handed
// values, not memory). The rest of the operator is one data-independent
// sort plus elementwise passes, so the trace depends only on r's shape.
// ar supplies reusable scratch (nil = allocate fresh).
func Compact(c *forkjoin.Ctx, sp *mem.Space, ar *Arena, r Rel, pred func(Record) bool, srt obliv.ScheduledSorter) int {
	a := r.A
	forkjoin.ParallelRange(c, 0, a.Len(), passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := a.Get(c, i)
			c.Op(1)
			e.Mark = 0
			if e.Kind == obliv.Real && pred(recordOf(e)) {
				e.Mark = 1
			}
			a.Set(c, i, e)
		}
	})
	return compactMarked(c, sp, ar, a, srt)
}

// recordOf extracts the relational record carried by a real element.
func recordOf(e obliv.Elem) Record {
	return Record{Key: e.Key, Key2: e.Key2, Val: e.Val}
}
