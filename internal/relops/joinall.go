package relops

import (
	"fmt"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
)

// This file implements the full many-to-many oblivious equi-join. A
// primary-key join (obliv.SendReceive) requires the left keys to be
// distinct; JoinAll lifts that restriction by composing the paper's
// distribution/propagation building blocks into an oblivious expansion:
// every left multiplicity is counted
// with the segmented-scan primitives, the right relation is duplicated
// across computed output spans by obliv.DistributeOrdered, and the existing
// propagate+compact tail then pairs each duplicated copy with its distinct
// left partner. The output length is a caller-supplied *public* capacity
// maxOut — the true match count is data and must stay invisible in the
// trace, so the operator always processes NextPow2(maxOut) output slots and
// reports an overflow through the returned error (a raw read outside the
// adversary's view, like every survivor count here). A caller with no
// public bound passes CapAuto and opts into revealing the worst-case bound
// instead: step 2b resolves the sentinel to the match count it has just
// computed, so the join sizes itself from its own key sort at no extra pass.
//
// Pass structure (3 data-independent sorts plus one bitonic merge, the rest
// scans and fixed elementwise passes; the trace is a function of
// (len(left), len(right), width, maxOut) only):
//
//  1. interleave and sort by (key columns..., side, position) — each key
//     group is its left records (in position order) then its right records;
//  2. segmented suffix-count + propagation give every element its group's
//     left multiplicity cnt, every left its within-group index, and every
//     right its copy count — whose sum, Σ|L_g|·|R_g|, is the match count a
//     CapAuto capacity resolves to; an exclusive prefix sum turns the
//     counts into disjoint output spans [d, d+cnt);
//  3. obliv.DistributeOrdered expands each right record across its span:
//     copy k of a right record is the (k+1)-th match of that record,
//     destined for the left record with within-group index k. Because the
//     span offsets come out of a prefix sum over the already-sorted
//     relation, the expansion needs only a single bitonic merge — the
//     multiplicity-count sort of step 1 does double duty as the expansion
//     order, fusing what used to be two full sorts into one;
//  4. sort by (key columns..., left index, side, position) and propagate
//     each left value to its copies, then compact the matched copies into
//     (right position, left index) order with a schedule snapshotted before
//     the propagation reuses the index field.

// joinCount runs steps 1-2b: it returns the key-sorted interleave of the two
// relations — every left (Tag tagLeft) carrying its within-group index in
// Aux, every right (Tag tagRight) its group's left multiplicity, i.e. its
// copy count, in Lbl — plus the true match count, the sum of the copy
// counts, read raw outside the adversary's view. No capacity has entered
// yet: the trace is a function of (len(left), len(right), width) alone,
// which is what lets a CapAuto join size itself from this result.
func joinCount(c *forkjoin.Ctx, sp *mem.Space, ar *Arena, left, right Rel, srt obliv.ScheduledSorter) (*mem.Array[obliv.Elem], uint64) {
	w := left.W
	a := interleave(c, sp, left, right)

	// Step 1: sort by (key columns..., left-before-right, position).
	sortSched(c, sp, ar, a, keyIdxSched(w), srt)

	// Step 2a: segmented suffix-count of left records. Every element's Lbl
	// becomes the number of left records at or after it within its key
	// group — in particular each group head's Lbl is the group's full left
	// multiplicity (the lefts lead the group).
	obliv.AggregateSuffixBy(c, sp, a, sameGroup(w),
		func(e obliv.Elem) uint64 {
			if e.Kind == obliv.Real && e.Tag == tagLeft {
				return 1
			}
			return 0
		},
		func(x, y uint64) uint64 { return x + y },
		func(e obliv.Elem, i int, agg uint64) obliv.Elem { e.Lbl = agg; return e })

	// Step 2b: broadcast the head's multiplicity through each group. A left
	// derives its within-group index (earliest position first) from the
	// difference of the group count and its own suffix count; a right keeps
	// the multiplicity — its copy count — in Lbl. A left's original
	// position is consumed here: copies meet their partner by (key tuple,
	// left index), never by left position.
	obliv.PropagateFirstBy(c, sp, a, sameGroup(w),
		func(e obliv.Elem, i int) (uint64, bool) { return e.Lbl, e.Kind == obliv.Real },
		func(e obliv.Elem, i int, v uint64, ok bool) obliv.Elem {
			if e.Kind != obliv.Real {
				return e
			}
			if e.Tag == tagLeft {
				e.Aux = v - e.Lbl
				e.Lbl = 0
			} else {
				e.Lbl = v
			}
			return e
		})

	// True match count — the sum of the rights' copy counts, Σ over key
	// groups of |left group|·|right group| — read raw outside the
	// adversary's view (overflow diagnostics, same convention as countReal).
	matches := uint64(0)
	for _, e := range a.Data() {
		if e.Kind == obliv.Real && e.Tag == tagRight {
			matches += e.Lbl
		}
	}
	return a, matches
}

// autoCap is the capacity a CapAuto join adopts once its match count is
// known: the count itself — no smaller capacity holds the result and no
// larger one is needed — floored to the legal minimum of one output slot.
func autoCap(matches uint64) (int, error) {
	if matches > MaxRows {
		return 0, fmt.Errorf("%w: bound exceeds %d", ErrCapTooLarge, int64(MaxRows))
	}
	return max(1, int(matches)), nil
}

// joinExpand runs the shared head of the many-to-many join (steps 1-3):
// it returns the expansion work relation — the duplicated right copies
// (Tag tagRight, Lbl holding the within-group left index, Aux the right
// record's original position) interleaved with the untouched left records
// (Tag tagLeft, Aux holding the within-group left index) — plus the true
// match count and the concrete output capacity: maxOut itself (validated by
// CheckCapacity), or for the CapAuto sentinel the bound autoCap derives from
// the match count — adopting it makes it public shape from there on. The
// capacity and the relation shapes fully determine the trace.
func joinExpand(c *forkjoin.Ctx, sp *mem.Space, ar *Arena, left, right Rel, maxOut int, srt obliv.ScheduledSorter) (Rel, int, int, error) {
	if maxOut != CapAuto {
		if err := CheckCapacity(int64(maxOut)); err != nil {
			return Rel{}, 0, 0, err
		}
	}
	w := left.W
	a, matches := joinCount(c, sp, ar, left, right, srt)
	n1 := a.Len()
	if maxOut == CapAuto {
		var err error
		if maxOut, err = autoCap(matches); err != nil {
			return Rel{}, int(matches), 0, err
		}
	}

	// Step 2c: disjoint output spans. Each right record claims cnt output
	// slots; the exclusive prefix sum of the counts is its span offset. The
	// offsets are left raw: they are non-decreasing in array order by
	// construction (and strictly increasing over the participants, whose
	// counts are positive), which is exactly DistributeOrdered's contract —
	// the participation test rides along as a predicate instead of the old
	// InfKey masking pass.
	ranks := ar.Ranks(sp, n1)
	forkjoin.ParallelRange(c, 0, n1, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := a.Get(c, i)
			c.Op(1)
			var cnt uint64
			if e.Kind == obliv.Real && e.Tag == tagRight {
				cnt = e.Lbl
			}
			ranks.Set(c, i, cnt)
		}
	})
	obliv.PrefixSumU64(c, sp, ranks, false)

	// Step 3: expand. Slot s of a right record's span [d, d+cnt) becomes
	// copy s-d of that record — Mark distinguishes fresh copies from
	// zero-multiplicity rights passed through by the distribution, which the
	// cleanup pass below turns into fillers. Left records pass through
	// untouched for step 4. The step-1 sort order plus the prefix-sum
	// offsets let DistributeOrdered place the copies with a single bitonic
	// merge instead of a second full sort.
	wrkA := obliv.DistributeOrdered(c, sp, a, ranks, obliv.NextPow2(maxOut),
		func(e obliv.Elem) bool { return e.Tag == tagRight && e.Lbl > 0 },
		func(slot, d uint64, src obliv.Elem, ok bool) obliv.Elem {
			li := slot - d
			if !ok || li >= src.Lbl {
				return obliv.Elem{}
			}
			return obliv.Elem{
				Key: src.Key, Key2: src.Key2, Val: src.Val,
				Aux: src.Aux, Lbl: li,
				Tag: tagRight, Kind: obliv.Real, Mark: 1,
			}
		})
	forkjoin.ParallelRange(c, 0, wrkA.Len(), passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := wrkA.Get(c, i)
			c.Op(1)
			if e.Kind == obliv.Real && e.Tag == tagRight && e.Mark == 0 {
				e = obliv.Elem{}
			}
			e.Mark = 0
			wrkA.Set(c, i, e)
		}
	})
	return Rel{A: wrkA, W: w}, int(matches), maxOut, nil
}

// joinLiSched orders the expansion work relation by (key columns..., left
// index) with, via the TiePos tie-break, each run's left partner first and
// its copies following in right-position order — the grouping step 4's
// propagation needs.
func joinLiSched(w int) schedule {
	return schedule{w: w + 1, emit: func(e obliv.Elem, out []uint64) {
		if e.Kind != obliv.Real {
			fillInf(out)
			return
		}
		for k := 0; k < w; k++ {
			out[k] = keyCol(e, k)
		}
		if e.Tag == tagLeft {
			out[w] = e.Aux
		} else {
			out[w] = e.Lbl
		}
	}}
}

// sameGroupLi groups the li-sorted expansion relation into (key tuple,
// left index) runs: one left partner followed by every copy destined for
// it. Kind-aware like sameGroup.
func sameGroupLi(w int) func(x, y obliv.Elem) bool {
	same := sameGroup(w)
	liOf := func(e obliv.Elem) uint64 {
		if e.Tag == tagLeft {
			return e.Aux
		}
		return e.Lbl
	}
	return func(x, y obliv.Elem) bool {
		if !same(x, y) {
			return false
		}
		if x.Kind != obliv.Real {
			return true
		}
		return liOf(x) == liOf(y)
	}
}

// JoinAll is the oblivious many-to-many sort-merge equi-join of two
// relations of the same key width: the result holds one record per
// (left record, right record) pair with equal key tuples — left key tuples
// may repeat. The output length is NextPow2(maxOut) where
// maxOut is a caller-supplied *public* capacity: the trace depends only on
// (len(left), len(right), width, maxOut), never on the contents or on the
// true match count. Matched records sit at the front ordered by
// (right position, left match index) — for each right record in original
// order, its matches in the left records' original order — with
// Key/Key2/Val the right record's and Lbl the joined left value
// (UnloadJoined applies).
//
// The true match count is always returned (raw read, outside the
// adversary's view). When it exceeds maxOut the error wraps
// ErrJoinOverflow and the relation holds an unspecified subset of the
// matches; the count tells the caller what capacity a retry needs. A
// maxOut outside [1, MaxRows] returns ErrBadCapacity (CheckCapacity) —
// except CapAuto, which adopts the match count as the capacity (it cannot
// overflow; a count above MaxRows returns ErrCapTooLarge) and thereby makes
// it public: the trace then depends on (len(left), len(right), width, match
// count). ar supplies reusable scratch.
func JoinAll(c *forkjoin.Ctx, sp *mem.Space, ar *Arena, left, right Rel, maxOut int, srt obliv.ScheduledSorter) (Rel, int, error) {
	wrk, matches, maxOut, err := joinExpand(c, sp, ar, left, right, maxOut, srt)
	if err != nil {
		return Rel{}, matches, err
	}
	w := wrk.W
	n := wrk.Len()

	// Step 4a: group every copy with its left partner.
	sortSched(c, sp, ar, wrk.A, joinLiSched(w), srt)

	// Step 4b: snapshot the output-order schedule — (right position, left
	// index), fillers and lefts to the tail — *before* the propagation
	// below reuses Lbl for the delivered left value. The schedule moves
	// through the network in lockstep with the elements, so building it
	// early costs nothing.
	ks := ar.Keys(sp, n, 2)
	kscr := ar.KeyScratch(sp, n, 2)
	obliv.BuildKeySchedule(c, wrk.A, ks, 0, n, func(e obliv.Elem, out []uint64) {
		if e.Kind != obliv.Real || e.Tag != tagRight {
			fillInf(out)
			return
		}
		out[0] = e.Aux
		out[1] = e.Lbl
	})

	// Step 4c: each (key tuple, left index) run's left partner delivers its
	// value to the run's copies. Every copy has a partner by construction
	// (its index is below its group's multiplicity), so Mark==1 flags
	// exactly the matched output records.
	obliv.PropagateFirstBy(c, sp, wrk.A, sameGroupLi(w),
		func(e obliv.Elem, i int) (uint64, bool) {
			return e.Val, e.Kind == obliv.Real && e.Tag == tagLeft
		},
		func(e obliv.Elem, i int, v uint64, ok bool) obliv.Elem {
			e.Mark = 0
			if e.Kind == obliv.Real && e.Tag == tagRight && ok {
				e.Lbl = v
				e.Mark = 1
			}
			return e
		})

	// Step 4d: compact to the public output order with the snapshotted
	// schedule; everything but the matched copies becomes a filler.
	c.SortPass("relops.sort")
	srt.SortScheduled(c, sp, wrk.A, ks, ar.ElemScratch(sp, n), kscr, 0, n)
	forkjoin.ParallelRange(c, 0, n, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := wrk.A.Get(c, i)
			c.Op(1)
			if e.Kind != obliv.Real || e.Mark == 0 {
				e = obliv.Elem{}
			}
			e.Mark = 0
			wrk.A.Set(c, i, e)
		}
	})

	out := Rel{A: wrk.A.View(0, obliv.NextPow2(maxOut)), W: w}
	if matches > maxOut {
		return out, matches, fmt.Errorf("%w: %d matches > maxOut %d", ErrJoinOverflow, matches, maxOut)
	}
	return out, matches, nil
}

// JoinAllDeferred is JoinAll for the planner's deferred-compaction rule:
// when a later pipeline stage re-sorts the relation anyway, the join's
// value-propagation and output-compaction sorts (steps 4a-4d — two of the
// operator's three) are pure waste, leaving a single sort plus the
// expansion merge. The result relation holds one record
// per match — the right record's key tuple, value, and original position —
// scattered among fillers in unspecified order, with the left values *not*
// delivered; the caller's next sorting pass restores contiguity. Length is
// NextPow2(NextPow2(len(left)+len(right)) + NextPow2(maxOut)) — a function
// of the public shapes. Match count, overflow and CapAuto behave exactly as
// in JoinAll.
func JoinAllDeferred(c *forkjoin.Ctx, sp *mem.Space, ar *Arena, left, right Rel, maxOut int, srt obliv.ScheduledSorter) (Rel, int, error) {
	wrk, matches, maxOut, err := joinExpand(c, sp, ar, left, right, maxOut, srt)
	if err != nil {
		return Rel{}, matches, err
	}
	// Drop the left partners (their values are not delivered on this path)
	// and clear the copies' scratch index so downstream passes see plain
	// records.
	forkjoin.ParallelRange(c, 0, wrk.Len(), passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := wrk.A.Get(c, i)
			c.Op(1)
			if e.Kind == obliv.Real && e.Tag == tagLeft {
				e = obliv.Elem{}
			} else {
				e.Lbl = 0
			}
			wrk.A.Set(c, i, e)
		}
	})
	if matches > maxOut {
		return wrk, matches, fmt.Errorf("%w: %d matches > maxOut %d", ErrJoinOverflow, matches, maxOut)
	}
	return wrk, matches, nil
}
