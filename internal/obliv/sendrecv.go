package obliv

import (
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
)

// SendReceive implements the send-receive abstraction of §F (often called
// oblivious routing): sources hold (Key, Val) pairs with distinct keys;
// each destination requests a Key and learns the corresponding Val, or ⊥
// if no source holds it. The result array parallels dests: entry j has the
// destination's Key, Aux = j, Val = the routed value, and Kind = Real if
// the key was found, Filler otherwise (the ⊥ case). It is the engine's one
// primary-key join: the public Join and Lookup, the graph layer's list
// ranking and Euler tour route through it, and (as SendReceiveSorted, its
// merge form) every pram.Gather and ScatterResolve.
//
// Construction per [CS17]: O(1) oblivious sorts plus one oblivious
// propagation, all within the sorting bound — with the cache-agnostic,
// binary fork-join sorter this realizes the Table 2 "S-R" row. Cost: two
// sorts of NextPow2(ns+nd) elements (the union by key, then back to
// request order) and one propagation. The sorts run through the
// ScheduledSorter key-schedule seam (one width-1 schedule reused across
// both passes), so the routing inherits whichever backend the caller
// selected and the cached-key comparators. The routing sort keys on the
// bare Key: TiePos breaks equal keys by (Kind, Tag, Aux), so each key's
// sources (tag 0) sort before its destinations (tag 1).
//
// Entries of either array with Kind != Real are inert: a non-Real source
// sends nothing, and a non-Real destination occupies its output slot but
// sorts after every Real entry, so it always receives ⊥.
//
// Requirements: source and destination keys must be < InfKey (the filler
// sentinel). If the distinct-keys promise is violated, the first source in
// *input* order wins (the TiePos tie-break orders equal-key sources by
// their original index, deterministically on every backend).
func SendReceive(c *forkjoin.Ctx, sp *mem.Space, sources, dests *mem.Array[Elem], srt ScheduledSorter) *mem.Array[Elem] {
	ns, nd := sources.Len(), dests.Len()
	wLen := NextPow2(ns + nd)
	w := mem.Alloc[Elem](sp, wLen) // unwritten slots are fillers
	loadSources(c, w, sources, nil)
	forkjoin.ParallelRange(c, 0, nd, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for j := lo; j < hi; j++ {
			d := dests.Get(c, j)
			c.Op(1)
			w.Set(c, ns+j, destEntry(d, uint64(j)))
		}
	})
	// One schedule plus scratch, shared by both sorts.
	ksort := NewKeyedSort(sp, wLen, srt)
	// Sort by key with sources before destinations at equal keys.
	ksort.Sort(c, w, 0, wLen, routeKey)

	// Propagate each key-group's source value to the whole group.
	PropagateFirst(c, sp, w, routeKey, sourceVal,
		func(e Elem, i int, v uint64, ok bool) Elem {
			if e.Kind == Real && e.Tag == tagDest {
				e.Val = v
				e.Mark = 0
				if ok {
					e.Mark = 1
				}
			}
			return e
		})

	// Sort destinations back to request order; everything else last.
	ksort.Sort(c, w, 0, wLen, func(e Elem) uint64 {
		if e.Tag == tagDest {
			return e.Aux
		}
		return InfKey
	})

	out := mem.Alloc[Elem](sp, nd)
	forkjoin.ParallelRange(c, 0, nd, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for j := lo; j < hi; j++ {
			e := w.Get(c, j)
			r := Elem{Key: e.Key, Val: e.Val, Aux: e.Aux, Kind: Real}
			if e.Mark == 0 {
				r.Kind = Filler // ⊥: key not found
			}
			out.Set(c, j, r)
		}
	})
	return out
}

// SendReceiveSorted is SendReceive for callers that already hold both
// sides in key order — which is call-site structure, never data — and read
// back one word per destination. Instead of sorting the union it merges:
// the sources ascend at the front of a NextPow2(ns+nd) work array and the
// destinations descend at its back, so one recorded bitonic merge
// interleaves them and the propagation routes. The routed values then go
// into the merge's key plane, dead since the merge, and only that plane
// replays the recorded swaps backwards (the un-merge): every destination's
// value returns to its slot without moving a single element. No sort at
// all: log2 of the work length comparator layers each way, plus one swap
// bit per comparator.
//
// It writes into out[j], for j < nd, the value routed to dests[j] — or
// dests[j].Val when the key is not found (⊥), so a caller picks what ⊥
// reads (a cell's current value, a combine's identity) and needs no found
// bit. Everything else a caller knows of a destination (its Key, its Aux)
// it holds in dests itself. out may be any array of at least nd words that
// aliases neither side.
//
// Precondition: sources ascend by Key, and at equal keys every Real
// source precedes every non-Real one (a non-Real source stays inert but
// keeps its place in the run, so its Key must not break the order); dests
// ascend by Key and every non-Real destination comes last. Violating it
// yields wrong values, never a different trace: the access pattern is a
// function of (ns, nd) alone.
func SendReceiveSorted(c *forkjoin.Ctx, sp *mem.Space, sources, dests *mem.Array[Elem], out *mem.Array[uint64]) {
	ns, nd := sources.Len(), dests.Len()
	wLen := NextPow2(ns + nd)
	w := mem.Alloc[Elem](sp, wLen) // unwritten slots are fillers
	ks := AllocKeySchedule(sp, wLen, 1)
	plane := ks.Plane(0)
	loadSources(c, w, sources, plane)

	// Sources up, InfKey fillers, key-ordered destinations down at
	// w[wLen-1-j] — bitonic by construction. A destination carries its own
	// Val, which it reads back if nothing is routed to it.
	top := wLen - 1
	forkjoin.ParallelRange(c, 0, nd, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for j := lo; j < hi; j++ {
			d := dests.Get(c, j)
			e := destEntry(d, d.Aux)
			e.Val = d.Val
			c.Op(1)
			w.Set(c, top-j, e)
			plane.Set(c, top-j, routeKey(e))
		}
	})
	forkjoin.ParallelRange(c, ns, wLen-nd, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for p := lo; p < hi; p++ {
			plane.Set(c, p, InfKey)
		}
	})
	rec := mem.Alloc[uint64](sp, mergeRecordWords(wLen))
	mergeBitonic(c, w, ks, wLen, rec)

	// Propagate each key-group's source value to the whole group, delivered
	// into the key plane: a Real entry whose group has a source takes its
	// value, and every other entry (⊥, a non-Real destination) its own Val.
	pv := propagateScan(c, sp, w, sameRoute, sourceVal)
	forkjoin.ParallelRange(c, 0, wLen, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := w.Get(c, i)
			p := pv.Get(c, i)
			c.Op(1)
			v := e.Val
			if p.has && e.Kind == Real {
				v = p.v
			}
			plane.Set(c, i, v)
		}
	})

	// Every destination's value back at the slot it was merged from.
	unmergeBitonic(c, ks, wLen, rec)
	forkjoin.ParallelRange(c, 0, nd, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for j := lo; j < hi; j++ {
			out.Set(c, j, plane.Get(c, top-j))
		}
	})
}

const (
	tagSource = 0
	tagDest   = 1
)

// routeKey is the routing key of a work-array entry: a Real entry keys its
// Key; a non-Real destination (Temp) keys InfKey-1, behind every Real
// entry (TiePos puts non-Real after Real at equal keys) yet ahead of the
// fillers in request order — the order a distinct per-slot key past every
// real key gives, which the shuffle backend's sample-sort stage also sees;
// fillers key InfKey.
func routeKey(e Elem) uint64 {
	switch e.Kind {
	case Real:
		return e.Key
	case Temp:
		return InfKey - 1
	}
	return InfKey
}

// sameRoute groups the routed work array: a run of equal routing keys.
func sameRoute(x, y Elem) bool { return routeKey(x) == routeKey(y) }

// sourceVal is the propagation's source: a Real source sends its Val.
func sourceVal(e Elem, _ int) (uint64, bool) {
	return e.Val, e.Kind == Real && e.Tag == tagSource
}

// destEntry is the work-array entry of a destination d tagged aux.
func destEntry(d Elem, aux uint64) Elem {
	e := Elem{Key: d.Key, Aux: aux, Tag: tagDest, Kind: Real}
	if d.Kind != Real {
		e.Kind = Temp // keyed past every source, so it comes back ⊥
	}
	return e
}

// loadSources writes the work-array entries of the sources into w[0:ns) —
// a non-Real source contributes a filler — and, into a non-nil plane, the
// merge's key words: a sorted source keys its bare Key even when it is not
// Real, so the source run ascends as the caller sorted it.
func loadSources(c *forkjoin.Ctx, w *mem.Array[Elem], sources *mem.Array[Elem], plane *mem.Array[uint64]) {
	forkjoin.ParallelRange(c, 0, sources.Len(), passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			s := sources.Get(c, i)
			e := Elem{} // non-Real source slots contribute nothing
			c.Op(1)
			if s.Kind == Real {
				e = Elem{Key: s.Key, Val: s.Val, Aux: uint64(i), Tag: tagSource, Kind: Real}
			}
			w.Set(c, i, e)
			if plane != nil {
				plane.Set(c, i, s.Key)
			}
		}
	})
}
