package relops

import (
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
)

// AggKind selects the aggregation function of GroupBy.
type AggKind uint8

const (
	// AggSum totals the group's values.
	AggSum AggKind = iota
	// AggCount counts the group's records.
	AggCount
	// AggMin takes the group's minimum value.
	AggMin
	// AggMax takes the group's maximum value.
	AggMax
	// AggAvg takes the group's mean value (floor of sum/count).
	AggAvg
	// AggVar takes the group's population variance,
	// floor(E[X²]) - floor(E[X])² clamped at zero — an integer
	// approximation exact for constant groups and within rounding error
	// otherwise.
	AggVar
)

// aggStats is the compound carrier of the moment aggregates: one segmented
// scan accumulates the (sum, count) pair — plus the sum of squares for the
// second moment — so Avg and Var need a single aggregation pass, not one
// per component. Sums wrap modulo 2^64 (keep values below 2^32 if exact
// squares over large groups are required).
type aggStats struct {
	sum, sq, cnt uint64
}

func addStats(x, y aggStats) aggStats {
	return aggStats{sum: x.sum + y.sum, sq: x.sq + y.sq, cnt: x.cnt + y.cnt}
}

func statsOf(e obliv.Elem) aggStats {
	if e.Kind != obliv.Real {
		return aggStats{}
	}
	return aggStats{sum: e.Val, sq: e.Val * e.Val, cnt: 1}
}

// derive computes the final aggregate value from the group's moment
// statistics.
func (s aggStats) derive(agg AggKind) uint64 {
	if s.cnt == 0 {
		return 0
	}
	switch agg {
	case AggAvg:
		return s.sum / s.cnt
	default: // AggVar
		m := s.sum / s.cnt
		ex2 := s.sq / s.cnt
		if ex2 < m*m {
			return 0 // integer rounding can cross zero; variance cannot
		}
		return ex2 - m*m
	}
}

// momentAgg reports whether agg aggregates through the compound moment
// carrier rather than a single word.
func momentAgg(agg AggKind) bool { return agg == AggAvg || agg == AggVar }

// singletonAgg is the aggregate of a one-record group with value v — what
// the fused Distinct→GroupBy pass installs on each surviving head.
func singletonAgg(agg AggKind, v uint64) uint64 {
	switch agg {
	case AggCount:
		return 1
	case AggVar:
		return 0
	default: // Sum/Min/Max/Avg of a singleton is the value itself
		return v
	}
}

// combineOf returns the associative, commutative combine and the per-record
// value extractor of a single-word aggregation kind.
func combineOf(agg AggKind) (valOf func(obliv.Elem) uint64, combine func(x, y uint64) uint64) {
	switch agg {
	case AggCount:
		return func(obliv.Elem) uint64 { return 1 },
			func(x, y uint64) uint64 { return x + y }
	case AggMin:
		return func(e obliv.Elem) uint64 { return e.Val },
			func(x, y uint64) uint64 {
				if y < x {
					return y
				}
				return x
			}
	case AggMax:
		return func(e obliv.Elem) uint64 { return e.Val },
			func(x, y uint64) uint64 {
				if y > x {
					return y
				}
				return x
			}
	default: // AggSum
		return func(e obliv.Elem) uint64 { return e.Val },
			func(x, y uint64) uint64 { return x + y }
	}
}

// aggregateGroups runs the segmented suffix-aggregation of agg over the
// key-sorted relation r and leaves every element's group aggregate in its
// Lbl (each group head's Lbl holds the full-group aggregate). The choice
// of carrier — single word or moment statistics — is a function of agg,
// which is public query shape.
func aggregateGroups(c *forkjoin.Ctx, sp *mem.Space, r Rel, agg AggKind) {
	same := sameGroup(r.W)
	install := func(e obliv.Elem, i int, v uint64) obliv.Elem {
		e.Lbl = v
		return e
	}
	if momentAgg(agg) {
		obliv.AggregateSuffixBy(c, sp, r.A, same, statsOf, addStats,
			func(e obliv.Elem, i int, s aggStats) obliv.Elem {
				return install(e, i, s.derive(agg))
			})
		return
	}
	valOf, combine := combineOf(agg)
	obliv.AggregateSuffixBy(c, sp, r.A, same, valOf, combine, install)
}

// GroupBy obliviously aggregates r by its key columns: afterwards r holds
// one record per distinct key tuple whose Val is the aggregate of the
// group's values under agg, ordered by the earliest original position of
// the group's members, and the group count is returned.
//
// Pipeline (§F composition, mirroring the paper's group-by sketch): sort by
// (key columns..., position), segmented suffix-aggregation gives every
// group head the full-group aggregate, a fixed neighbor-compare pass marks
// the heads and installs the aggregate as their Val, and compaction keeps
// only the heads. All phases are data-independent; the trace depends only
// on (len, width, agg) — all public. ar supplies reusable scratch (nil =
// allocate fresh).
func GroupBy(c *forkjoin.Ctx, sp *mem.Space, ar *Arena, r Rel, agg AggKind, srt obliv.ScheduledSorter) int {
	sortSched(c, sp, ar, r.A, keyIdxSched(r.W), srt)

	aggregateGroups(c, sp, r, agg)

	// Group heads (inclusive suffix aggregate over the whole group) adopt
	// the aggregate as their value; markBoundaries then flags exactly them.
	markBoundaries(c, sp, ar, r)
	a := r.A
	forkjoin.ParallelRange(c, 0, a.Len(), passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := a.Get(c, i)
			c.Op(1)
			if e.Mark == 1 {
				e.Val = e.Lbl
			}
			e.Lbl = 0
			a.Set(c, i, e)
		}
	})
	return compactMarked(c, sp, ar, a, srt)
}
