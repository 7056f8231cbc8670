package relops

import (
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
)

// AggKind selects the aggregation function of the group-by passes.
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
