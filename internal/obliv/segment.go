package obliv

import (
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
)

// This file implements the oblivious aggregation and propagation primitives
// of §F / Table 2 as segmented scans: arrays are sorted so that equal
// groups are consecutive; propagation copies the group representative's
// value to every member (span O(log n), work O(n), cache O(n/B)), and
// aggregation gives every member the combine of the group members to its
// right. Both have access patterns depending only on n.
//
// Two groupings are supported: the classic single-word groupOf key (the
// paper's formulation) and an explicit sameGroup predicate over adjacent
// elements (the *By variants), which the relational layer uses for
// multi-column keys that no single word can express. Either way the
// grouping only feeds the boundary flags of the scan carrier — the access
// pattern is identical.

// propVal is the carrier of the "copy first defined value within segment"
// segmented scan. boundary marks the start of a new group at this position.
type propVal struct {
	v        uint64
	has      bool
	boundary bool
}

// propOp is the associative combine: a later boundary resets the segment;
// otherwise the earliest defined value wins.
func propOp(x, y propVal) propVal {
	if y.boundary {
		return y
	}
	v := y.v
	if x.has {
		v = x.v
	}
	return propVal{v: v, has: x.has || y.has, boundary: x.boundary}
}

// PropagateFirst is PropagateFirstBy grouped by a single-word key: a run of
// equal groupOf values forms one group. groupOf must be a pure function of
// the element (fillers typically map to InfKey so they form their own
// trailing group).
func PropagateFirst(
	c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[Elem],
	groupOf func(Elem) uint64,
	src func(e Elem, i int) (uint64, bool),
	apply func(e Elem, i int, v uint64, ok bool) Elem,
) {
	PropagateFirstBy(c, sp, a,
		func(x, y Elem) bool { return groupOf(x) == groupOf(y) },
		src, apply)
}

// PropagateFirstBy performs oblivious propagation in a grouped array: within
// each maximal run of positions whose adjacent elements satisfy sameGroup,
// the value of the *first* element for which src reports ok is delivered
// via apply(e, i, v, ok) to every element at or after that source. Elements
// before the first source of their run — and all elements of runs with no
// source — receive ok=false.
//
// This directional (prefix) semantics matches every use in the paper: the
// group representative is the leftmost element (§F), and send-receive sorts
// sources before receivers within a key group.
//
// sameGroup must be a pure function of its two elements; it is evaluated on
// every adjacent pair in a fixed neighbor-read pass.
func PropagateFirstBy(
	c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[Elem],
	sameGroup func(x, y Elem) bool,
	src func(e Elem, i int) (uint64, bool),
	apply func(e Elem, i int, v uint64, ok bool) Elem,
) {
	n := a.Len()
	if n == 0 {
		return
	}
	p := propagateScan(c, sp, a, sameGroup, src)
	forkjoin.ParallelRange(c, 0, n, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := a.Get(c, i)
			pv := p.Get(c, i)
			c.Op(1)
			a.Set(c, i, apply(e, i, pv.v, pv.has))
		}
	})
}

// propagateScan is PropagateFirstBy up to its delivery pass: it returns the
// scanned carrier, whose entry i holds the value delivered to position i of
// the non-empty a and whether one was found.
func propagateScan(
	c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[Elem],
	sameGroup func(x, y Elem) bool,
	src func(e Elem, i int) (uint64, bool),
) *mem.Array[propVal] {
	n := a.Len()
	p := mem.Alloc[propVal](sp, n)
	forkjoin.ParallelRange(c, 0, n, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := a.Get(c, i)
			boundary := i == 0
			if i > 0 {
				prev := a.Get(c, i-1)
				c.Op(1)
				boundary = !sameGroup(prev, e)
			}
			v, has := src(e, i)
			p.Set(c, i, propVal{v: v, has: has, boundary: boundary})
		}
	})
	ScanOp(c, sp, p, propOp, propVal{}, true)
	return p
}

// segVal is the carrier for segmented aggregation over an arbitrary value
// type V ((sum) words, (sum, count) pairs, (sum, sum-of-squares, count)
// triples, ...).
type segVal[V any] struct {
	v        V
	boundary bool
}

// AggregateSuffix is AggregateSuffixBy grouped by a single-word key and
// aggregating single uint64 values — the paper's Table 2 formulation and
// the API every pre-wide-key caller uses.
func AggregateSuffix(
	c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[Elem],
	groupOf func(Elem) uint64,
	valOf func(Elem) uint64,
	combine func(x, y uint64) uint64,
	apply func(e Elem, i int, agg uint64) Elem,
) {
	AggregateSuffixBy(c, sp, a,
		func(x, y Elem) bool { return groupOf(x) == groupOf(y) },
		valOf, combine, apply)
}

// AggregateSuffixBy performs oblivious aggregation in a grouped array:
// every element receives, via apply, the combine of valOf over the elements
// of its group at positions >= its own (an inclusive suffix aggregate; the
// paper's exclusive "to its right" variant follows by combining out the
// element's own value, which all callers in this module do inline). Groups
// are maximal runs whose adjacent elements satisfy sameGroup. combine must
// be commutative and associative over V; aggregating a compound V (e.g. a
// (sum, count) pair) costs the same fixed pass as a single word — one
// carrier element still occupies one address.
func AggregateSuffixBy[V any](
	c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[Elem],
	sameGroup func(x, y Elem) bool,
	valOf func(Elem) V,
	combine func(x, y V) V,
	apply func(e Elem, i int, agg V) Elem,
) {
	n := a.Len()
	if n == 0 {
		return
	}
	// Build the carrier in reversed order so a plain prefix scan computes
	// the suffix aggregate; boundaries sit at original group *ends*.
	p := mem.Alloc[segVal[V]](sp, n)
	forkjoin.ParallelRange(c, 0, n, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for j := lo; j < hi; j++ {
			i := n - 1 - j
			e := a.Get(c, i)
			boundary := i == n-1
			if i < n-1 {
				next := a.Get(c, i+1)
				c.Op(1)
				boundary = !sameGroup(next, e)
			}
			p.Set(c, j, segVal[V]{v: valOf(e), boundary: boundary})
		}
	})
	op := func(x, y segVal[V]) segVal[V] {
		if y.boundary {
			return y
		}
		return segVal[V]{v: combine(x.v, y.v), boundary: x.boundary}
	}
	var id segVal[V]
	ScanOp(c, sp, p, op, id, true)
	forkjoin.ParallelRange(c, 0, n, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := a.Get(c, i)
			pv := p.Get(c, n-1-i)
			c.Op(1)
			a.Set(c, i, apply(e, i, pv.v))
		}
	})
}
