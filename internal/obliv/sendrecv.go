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
// primary-key join: the public Join and Lookup and the ORAM's direct
// accesses route through it, and (as Router.Route, its merge form over
// word planes) every pram gather and scatter, which carry the graph
// kernels — list ranking and the Euler tour included.
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
	loadSources(c, w, sources)
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

// Router holds the work space of Route — the merge's two planes, its swap
// record, the propagation's carrier and scan tree — so a caller that
// routes again and again (pram.Gatherer once per gather, a graph kernel
// across its gathers and scatters) allocates it once. A router sized for n
// slots routes any ns sources to nd destinations with NextPow2(ns+nd) ≤ n,
// on a prefix of its planes, record, carrier and tree. Its routes must be
// issued sequentially.
type Router struct {
	n      int
	ws     *KeySchedule // plane 0 the routing word, plane 1 the value
	rec    *mem.Array[uint64]
	pv     *mem.Array[propVal]
	tree   *mem.Array[propVal]
	spaces []*routeSpace // the prefix of each work length, by its log2; built on first use
}

// routeSpace is a Router's work space cut to one power-of-two work length.
type routeSpace struct {
	ws, vs   *KeySchedule // vs is ws's value plane alone: what the un-merge moves
	pv, tree *mem.Array[propVal]
}

// NewRouter allocates from sp the work space of routes from ns sources to
// nd destinations: NextPow2(ns+nd) slots.
func NewRouter(sp *mem.Space, ns, nd int) *Router {
	n := NextPow2(ns + nd)
	return &Router{
		n:      n,
		ws:     AllocKeySchedule(sp, n, 2),
		rec:    mem.Alloc[uint64](sp, mergeRecordWords(n)),
		pv:     mem.Alloc[propVal](sp, n),
		tree:   mem.Alloc[propVal](sp, 2*n-1),
		spaces: make([]*routeSpace, Log2(n)+1),
	}
}

// space is the router's work space for a work length of n slots.
func (r *Router) space(n int) *routeSpace {
	if n > r.n {
		panic("obliv: Route shape exceeds the router's")
	}
	l := Log2(n)
	if r.spaces[l] == nil {
		ws := r.ws.View(0, n)
		r.spaces[l] = &routeSpace{
			ws: ws, vs: &KeySchedule{planes: ws.planes[1:]},
			pv: r.pv.View(0, n), tree: r.tree.View(0, 2*n-1),
		}
	}
	return r.spaces[l]
}

// Route is SendReceive for callers that already hold both
// sides in key order — which is call-site structure, never data — and
// carry one value word per entry: it routes word planes, not records.
// Instead of sorting the union it merges: the sources ascend at the front
// of a NextPow2(ns+nd) work array of two planes (a routing word and the
// value) and the destinations descend at its back, so one recorded bitonic
// merge on the routing word, the value carried, interleaves them and a
// propagation over the planes routes. The value plane then replays the
// recorded swaps backwards (the un-merge): every destination's value
// returns to its slot. No sort and no element: log2 of the work length
// comparator layers each way, two words per comparator forward and one
// back, plus one swap bit per comparator. It runs on the router's work
// space, over the NextPow2(ns+nd) slots the shape needs.
//
// Source i keys srcKeys[i] and sends srcVals[i]; destination j keys
// dstKeys[j] and receives, into out[j], the value of the source with its
// key — or, when no source has it (⊥), its own dstVals[j], so a caller
// picks what ⊥ reads (a cell's current value) and needs no found bit. A
// nil key plane keys entry i by i, as a memory's cells are keyed; a nil
// dstVals reads 0 for ⊥. There are srcVals.Len() sources and out.Len()
// destinations. out may be dstVals itself — the destinations are read
// before out is written — but no other plane of either side.
//
// Precondition: both key planes ascend, and every key is below MaxKey or
// is InfKey, which marks an entry that takes no part (a source with it
// sends nothing, a destination with it reads ⊥). At equal source keys
// only the first source sends — a neighbour compare in the load marks the
// later ones inert — so a caller that sorts its candidates best-first
// gets the best one (pram's conflict resolution). Violating the order
// yields wrong values, never a different trace: the access pattern is a
// function of (ns, nd) and of which key planes are nil alone.
func (r *Router) Route(c *forkjoin.Ctx, srcKeys, srcVals, dstKeys, dstVals, out *mem.Array[uint64]) {
	ns, nd := srcVals.Len(), out.Len()
	n := NextPow2(ns + nd)
	rs := r.space(n)
	words, vals := rs.ws.planes[0], rs.ws.planes[1]
	top := n - 1

	// Sources up, InfKey fillers, key-ordered destinations down at
	// [n-1-j] — bitonic by construction. A source keys key<<1 and a
	// destination key<<1|1, so each key's source merges just before its
	// destinations; a later source of the same key keys key<<1|1 too and
	// sends nothing.
	forkjoin.ParallelRange(c, 0, ns, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			key := keyAt(c, srcKeys, i)
			var later uint64
			if i > 0 && srcKeys != nil {
				prev := srcKeys.Get(c, i-1)
				c.Op(1)
				if prev == key {
					later = 1
				}
			}
			words.Set(c, i, routeWord(key, later))
			vals.Set(c, i, srcVals.Get(c, i))
		}
	})
	forkjoin.ParallelRange(c, ns, n-nd, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for p := lo; p < hi; p++ {
			words.Set(c, p, InfKey)
			vals.Set(c, p, 0)
		}
	})
	forkjoin.ParallelRange(c, 0, nd, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for j := lo; j < hi; j++ {
			var v uint64
			if dstVals != nil {
				v = dstVals.Get(c, j)
			}
			words.Set(c, top-j, routeWord(keyAt(c, dstKeys, j), 1))
			vals.Set(c, top-j, v)
		}
	})
	mergePlanes(c, rs.ws, n, r.rec)

	// Propagate each key's source value over its run of equal keys, into
	// the value plane. The scan leaves at every position the value of the
	// first source at or before it in its run, or the position's own
	// value where there is none — the ⊥ a destination reads.
	forkjoin.ParallelRange(c, 0, n, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			w := words.Get(c, i)
			boundary := i == 0
			if i > 0 {
				prev := words.Get(c, i-1)
				c.Op(1)
				boundary = prev>>1 != w>>1
			}
			rs.pv.Set(c, i, propVal{v: vals.Get(c, i), has: w&1 == 0, boundary: boundary})
		}
	})
	scanWith(c, rs.pv, rs.tree, propOp, propVal{}, true)
	forkjoin.ParallelRange(c, 0, n, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			vals.Set(c, i, rs.pv.Get(c, i).v)
		}
	})

	// Every destination's value back at the slot it was merged from.
	unmergeBitonic(c, rs.vs, n, r.rec)
	forkjoin.ParallelRange(c, 0, nd, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for j := lo; j < hi; j++ {
			out.Set(c, j, vals.Get(c, top-j))
		}
	})
}

// keyAt is entry i's key: keys[i], or i for a nil plane.
func keyAt(c *forkjoin.Ctx, keys *mem.Array[uint64], i int) uint64 {
	if keys == nil {
		return uint64(i)
	}
	return keys.Get(c, i)
}

// routeWord is the merge key of an entry keyed key: key<<1 | cls — cls 0
// sends, 1 receives or is inert — or InfKey for key InfKey, which sorts
// last and shares its run with no source. Keys below MaxKey keep their
// order and never collide.
func routeWord(key, cls uint64) uint64 {
	return key<<1 | cls | -(key >> 63)
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

// loadSources writes the work-array entries of the sources into w[0:ns);
// a non-Real source contributes a filler.
func loadSources(c *forkjoin.Ctx, w *mem.Array[Elem], sources *mem.Array[Elem]) {
	forkjoin.ParallelRange(c, 0, sources.Len(), passGrain, func(c *forkjoin.Ctx, lo, hi int) {
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
}
