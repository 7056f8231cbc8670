package relops

import (
	"fmt"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
)

// This file implements the join capacity advisor: an oblivious computation
// of the worst-case many-to-many match bound Σ over key groups of
// |L_g|·|R_g|. The bound replaces the guess-overflow-retry loop a caller
// otherwise runs against JoinAll's public capacity — one advisor pass (a
// single sort plus a segmented scan) always yields a maxOut that cannot
// overflow. The bound itself is read raw outside the adversary's view,
// like every survivor count in this package: a caller that feeds it back
// into a join as maxOut makes it public shape by doing so, which is the
// explicit contract of the JoinCapAuto mode layered on top.

// capPair carries a group's left and right multiplicities through the
// segmented suffix aggregate.
type capPair struct{ l, r uint64 }

// JoinCapAdvise returns the worst-case output size of JoinAll(left, right):
// the sum over key groups of the product of the group's left and right
// multiplicities. A capacity of at least the returned bound (and at least
// 1 — an empty bound still needs one output slot to be a legal maxOut)
// can never overflow. The trace is a function of
// (len(left), len(right), width) only: one interleave, one sort through
// the ScheduledSorter seam, and one segmented suffix scan — the final
// summation reads raw memory outside the adversary's view.
//
// When the bound exceeds MaxRows the error wraps ErrCapTooLarge and the
// returned value is MaxRows+1 (saturated): no legal capacity can hold the
// join. ar supplies reusable scratch (nil = allocate fresh).
func JoinCapAdvise(c *forkjoin.Ctx, sp *mem.Space, ar *Arena, left, right Rel, srt obliv.ScheduledSorter) (int64, error) {
	if left.W != right.W {
		panic(fmt.Sprintf("relops: join of width-%d and width-%d relations", left.W, right.W))
	}
	w := left.W
	nl, nr := left.Len(), right.Len()
	n1 := obliv.NextPow2(nl + nr)
	a := mem.Alloc[obliv.Elem](sp, n1) // trailing slots are fillers

	forkjoin.ParallelRange(c, 0, nl, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := left.A.Get(c, i)
			e.Tag = tagLeft
			a.Set(c, i, e)
		}
	})
	forkjoin.ParallelRange(c, 0, nr, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for j := lo; j < hi; j++ {
			e := right.A.Get(c, j)
			e.Tag = tagRight
			a.Set(c, nl+j, e)
		}
	})

	// Sort by key so each group is contiguous, then give every element its
	// group's (lefts, rights) pair via the suffix aggregate — the group
	// head's pair is the full multiplicities. Lbl and Val of the scratch
	// copies carry the pair out to the raw walk.
	sortSched(c, sp, ar, a, keyIdxSched(w), srt)
	obliv.AggregateSuffixBy(c, sp, a, sameGroup(w),
		func(e obliv.Elem) capPair {
			if e.Kind != obliv.Real {
				return capPair{}
			}
			if e.Tag == tagLeft {
				return capPair{l: 1}
			}
			return capPair{r: 1}
		},
		func(x, y capPair) capPair { return capPair{l: x.l + y.l, r: x.r + y.r} },
		func(e obliv.Elem, i int, agg capPair) obliv.Elem { e.Lbl = agg.l; e.Val = agg.r; return e })

	// Raw walk over the group heads, summing |L_g|·|R_g| with saturation at
	// MaxRows+1: both factors can reach MaxRows, so the product alone can
	// overflow uint64, and any value above MaxRows is equally unusable.
	const tooBig = uint64(MaxRows) + 1
	same := sameGroup(w)
	data := a.Data()
	total := uint64(0)
	for i, e := range data {
		if e.Kind != obliv.Real {
			continue
		}
		if i > 0 && data[i-1].Kind == obliv.Real && same(data[i-1], e) {
			continue // not a group head
		}
		l, r := e.Lbl, e.Val
		prod := uint64(0)
		switch {
		case l == 0 || r == 0:
		case r > uint64(MaxRows)/l:
			prod = tooBig
		default:
			prod = l * r
		}
		total += prod
		if total > MaxRows {
			total = tooBig
		}
	}
	if total > MaxRows {
		return int64(tooBig), fmt.Errorf("%w: bound exceeds %d", ErrCapTooLarge, int64(MaxRows))
	}
	return int64(total), nil
}
