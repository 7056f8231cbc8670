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
// primary-key join: the public Join and Lookup, every pram.Gather and
// ScatterResolve, and the graph layer all route through it.
//
// Construction per [CS17]: O(1) oblivious sorts plus one oblivious
// propagation, all within the sorting bound — with the cache-agnostic,
// binary fork-join sorter this realizes the Table 2 "S-R" row. The sorts
// run through the ScheduledSorter key-schedule seam (one width-1
// schedule reused across both passes), so the routing inherits whichever
// backend the caller selected and the cached-key comparators. The routing
// sort keys on the bare Key: TiePos breaks equal keys by (Kind, Tag, Aux),
// so each key's sources (tag 0) sort before its destinations (tag 1).
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
	w := mem.Alloc[Elem](sp, wLen) // trailing slots are fillers

	const (
		tagSource = 0
		tagDest   = 1
	)
	forkjoin.ParallelRange(c, 0, ns, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			s := sources.Get(c, i)
			e := Elem{} // non-Real source slots contribute nothing
			c.Op(1)
			if s.Kind == Real {
				e = Elem{Key: s.Key, Val: s.Val, Aux: uint64(i), Tag: tagSource, Kind: Real}
			}
			w.Set(c, i, e)
		}
	})
	forkjoin.ParallelRange(c, 0, nd, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for j := lo; j < hi; j++ {
			d := dests.Get(c, j)
			e := Elem{Key: d.Key, Aux: uint64(j), Tag: tagDest, Kind: Real}
			c.Op(1)
			if d.Kind != Real {
				e.Kind = Temp // keyed past every source, so it comes back ⊥
			}
			w.Set(c, ns+j, e)
		}
	})

	// One schedule plus scratch, shared by both sorts.
	ksort := NewKeyedSort(sp, wLen, srt)

	// Sort by key with sources before destinations at equal keys. A
	// non-Real destination keys InfKey-1: behind every Real entry (TiePos
	// puts non-Real after Real at equal keys), yet ahead of the fillers in
	// request order: the order a distinct per-slot key past every real key
	// gives, which the shuffle backend's sample-sort stage also sees.
	keyOf := func(e Elem) uint64 {
		switch e.Kind {
		case Real:
			return e.Key
		case Temp:
			return InfKey - 1
		}
		return InfKey
	}
	ksort.Sort(c, w, 0, wLen, keyOf)

	// Propagate each key-group's source value to the whole group.
	PropagateFirst(c, sp, w, keyOf,
		func(e Elem, i int) (uint64, bool) {
			return e.Val, e.Kind == Real && e.Tag == tagSource
		},
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

	// Sort destinations back to request order; sources and fillers last.
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
