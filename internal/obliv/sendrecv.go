package obliv

import (
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
)

// SendReceive implements the send-receive abstraction of §F (often called
// oblivious routing): sources hold (Key, Val) pairs with distinct keys;
// each destination requests a Key and learns the corresponding Val, or ⊥
// if no source holds it. The result array parallels dests: entry j has the
// destination's Key, Aux = j, Val = the routed value (0 for ⊥), and Kind =
// Real if the key was found, Filler otherwise (the ⊥ case). It is
// SendReceivePlanes for callers that hold elements — internal/oram's
// multicast and the experiments; the public Join and Lookup call the plane
// form directly — and (as Router.Route, its merge form over word planes)
// the engine routes every pram gather and scatter the same way.
//
// Entries of either array with Kind != Real are inert: a non-Real source
// sends nothing, and a non-Real destination occupies its output slot but
// always receives ⊥. Keys take any value below InfKey (the filler
// sentinel). If the distinct-keys promise is violated, the first source in
// input order wins.
//
// The sorter is not used: the union sorts on the cache-agnostic bitonic
// network whatever the backend, as every plane sort does. The parameter
// stays for the benchmark harness's send-receive probe, which passes one.
func SendReceive(c *forkjoin.Ctx, sp *mem.Space, sources, dests *mem.Array[Elem], _ ScheduledSorter) *mem.Array[Elem] {
	nd := dests.Len()
	vals, found := sendReceive(c, sp, sources.Len(), nd,
		func(c *forkjoin.Ctx, i int) (uint64, uint64) {
			s := sources.Get(c, i)
			return realKey(c, s), s.Val
		},
		func(c *forkjoin.Ctx, j int) uint64 { return realKey(c, dests.Get(c, j)) })
	out := mem.Alloc[Elem](sp, nd)
	forkjoin.ParallelRange(c, 0, nd, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for j := lo; j < hi; j++ {
			r := Elem{Key: dests.Get(c, j).Key, Val: vals.Get(c, j), Aux: uint64(j), Kind: Filler}
			c.Op(1)
			if found.Get(c, j) != 0 {
				r.Kind = Real
			}
			out.Set(c, j, r)
		}
	})
	return out
}

// realKey is the key e takes part in a send-receive under: its Key if it
// is Real, else InfKey, which marks it inert.
func realKey(c *forkjoin.Ctx, e Elem) uint64 {
	c.Op(1)
	if e.Kind != Real {
		return InfKey
	}
	return e.Key
}

// SendReceivePlanes is send-receive over word planes (§F, [CS17]: O(1)
// oblivious sorts plus one oblivious propagation): source i keys srcKeys[i]
// and sends srcVals[i]; destination j keys dstKeys[j] and reads, into
// vals[j], the value of the first source (in input order) with its key,
// with found[j] = 1 — or, when no source has it (⊥), 0 and found[j] = 0.
// Keys take any value below InfKey; InfKey marks an inert entry (a source
// with it sends nothing, a destination with it reads ⊥). The access pattern
// is a function of (ns, nd) alone.
func SendReceivePlanes(c *forkjoin.Ctx, sp *mem.Space, srcKeys, srcVals, dstKeys *mem.Array[uint64]) (vals, found *mem.Array[uint64]) {
	return sendReceive(c, sp, srcKeys.Len(), dstKeys.Len(),
		func(c *forkjoin.Ctx, i int) (uint64, uint64) { return srcKeys.Get(c, i), srcVals.Get(c, i) },
		func(c *forkjoin.Ctx, j int) uint64 { return dstKeys.Get(c, j) })
}

// sendReceive routes ns sources src(i) = (key, value) to nd destinations
// keyed dst(j), as SendReceivePlanes. Cost: one recorded sort and one
// un-sort of NextPow2(ns+nd) slots on the cache-agnostic bitonic network,
// whatever the caller's sort backend, and one propagation scan. The union
// is three word planes: the key, then the class and slot (a source that
// sends is class 0, every other entry class 1), then the value. The sort
// orders the first two, so each key's senders come first, in input order,
// and carries the value. The scan hands every slot its run's first
// sender's value and whether there is one, and the un-sort replays those
// two planes back to the slots the destinations were loaded at.
func sendReceive(c *forkjoin.Ctx, sp *mem.Space, ns, nd int, src func(c *forkjoin.Ctx, i int) (uint64, uint64), dst func(c *forkjoin.Ctx, j int) uint64) (vals, found *mem.Array[uint64]) {
	n := NextPow2(ns + nd)
	ws, scr := AllocKeySchedule(sp, n, 3), AllocKeySchedule(sp, n, 3)
	keys, tags, vs := ws.planes[0], ws.planes[1], ws.planes[2]
	forkjoin.ParallelRange(c, 0, n, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for p := lo; p < hi; p++ {
			key, cls, v := InfKey, uint64(1), uint64(0)
			switch {
			case p < ns:
				key, v = src(c, p)
				c.Op(1)
				if key != InfKey {
					cls = 0
				}
			case p < ns+nd:
				key = dst(c, p-ns)
			}
			keys.Set(c, p, key)
			tags.Set(c, p, cls<<63|uint64(p))
			vs.Set(c, p, v)
		}
	})
	rec := mem.Alloc[uint64](sp, PlaneNetwork.RecordWords(c, n, 0))
	PlaneNetwork.SortRecorded(c, ws, scr, 2, rec, n)

	// Every run of equal keys starts with its senders: the scan leaves at
	// each slot the run's first sender's value and whether there is one,
	// or its own value (0 at a destination) where there is none.
	pv := mem.Alloc[propVal](sp, n)
	forkjoin.ParallelRange(c, 0, n, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			key := keys.Get(c, i)
			boundary := i == 0
			if i > 0 {
				prev := keys.Get(c, i-1)
				c.Op(1)
				boundary = prev != key
			}
			pv.Set(c, i, propVal{v: vs.Get(c, i), has: tags.Get(c, i)>>63 == 0, boundary: boundary})
		}
	})
	ScanOp(c, sp, pv, propOp, propVal{}, true)
	forkjoin.ParallelRange(c, 0, n, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			p := pv.Get(c, i)
			var f uint64
			c.Op(1)
			if p.has {
				f = 1
			}
			tags.Set(c, i, f)
			vs.Set(c, i, p.v)
		}
	})
	PlaneNetwork.Unsort(c, &KeySchedule{planes: ws.planes[1:]}, &KeySchedule{planes: scr.planes[1:]}, rec, n)
	return vs.View(ns, nd), tags.View(ns, nd)
}

// PlaneNetwork is the network send-receive sorts and un-sorts its union on:
// bitonic.SortRecorded (a sort pass: the cancellation check, the sort.pass
// fault site and one count on the run's token), bitonic.Unsort and
// bitonic.RecordWords, the cache-agnostic network every plane sort runs.
// Package bitonic builds that network from this package's comparator, so
// it imports obliv and fills these in from its init; nothing else should.
var PlaneNetwork struct {
	SortRecorded func(c *forkjoin.Ctx, ws, wscr *KeySchedule, k int, rec *mem.Array[uint64], n int)
	Unsort       func(c *forkjoin.Ctx, vs, vscr *KeySchedule, rec *mem.Array[uint64], n int)
	RecordWords  func(c *forkjoin.Ctx, n, leaf int) int
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
