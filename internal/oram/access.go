package oram

import (
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/pram"
	"oblivmc/internal/prng"
)

// dummyKey marks padded / duplicate requests at a level.
const dummyKey = uint64(1) << 50

// perReq is the per-request walking state of a batch.
type perReq struct {
	addr   uint64
	real   bool
	write  bool
	wval   uint64
	curLbl uint32 // label for the current level (learned from the parent)
	uniq   bool   // first occurrence of this level's prefix
	winW   bool   // resolved winning write (data level)
	winV   uint64
	out    uint64 // result value
}

// Access processes one batch of at most Batch() requests and returns the
// read values (for writes, the previous value) in request order. The batch
// is padded internally to exactly Batch() requests.
func (o *OPRAM) Access(c *forkjoin.Ctx, sp *mem.Space, reqs []Req) []uint64 {
	p := o.batch
	if len(reqs) > p {
		panic("oram: batch too large")
	}
	o.ctr++
	o.stats.Batches++

	if o.flat != nil {
		return o.accessFlat(c, sp, reqs)
	}

	state := make([]perReq, p)
	for i := range state {
		if i < len(reqs) {
			state[i] = perReq{addr: reqs[i].Addr, real: true, write: reqs[i].Write, wval: reqs[i].Val}
			if reqs[i].Addr >= uint64(o.Space()) {
				panic("oram: address out of range")
			}
		}
	}

	// Flat base level: labels for the first tree level.
	dStart := o.dStart
	addrs := mem.Alloc[uint64](sp, p)
	forkjoin.ParallelFor(c, 0, p, 0, func(c *forkjoin.Ctx, i int) {
		a := dummyKey + uint64(i)
		if state[i].real {
			a = state[i].addr >> (o.d - dStart)
		}
		addrs.Set(c, i, a)
	})
	got := pram.Gather(c, sp, o.base, addrs, nil)
	upd := mem.Alloc[obliv.Elem](sp, p)
	forkjoin.ParallelFor(c, 0, p, 0, func(c *forkjoin.Ctx, i int) {
		e := obliv.Elem{Kind: obliv.Filler, Aux: uint64(i)}
		g := got.Get(c, i)
		c.Op(1)
		if state[i].real && g.Kind == obliv.Real {
			q := state[i].addr >> (o.d - dStart)
			state[i].curLbl = uint32(g.Val)
			e = obliv.Elem{Key: q, Val: uint64(o.freshLabel(dStart, q)), Aux: uint64(i), Kind: obliv.Real}
		}
		upd.Set(c, i, e)
	})
	pram.ScatterResolve(c, sp, o.base, upd)

	// Walk the trees.
	for _, t := range o.trees {
		o.levelAccess(c, sp, t, state)
	}

	out := make([]uint64, len(reqs))
	for i := range out {
		out[i] = state[i].out
	}
	return out
}

// accessFlat serves the degenerate small-space mode with one oblivious
// gather + one conflict-resolved scatter.
func (o *OPRAM) accessFlat(c *forkjoin.Ctx, sp *mem.Space, reqs []Req) []uint64 {
	p := o.batch
	addrs := mem.Alloc[uint64](sp, p)
	wr := mem.Alloc[obliv.Elem](sp, p)
	forkjoin.ParallelFor(c, 0, p, 0, func(c *forkjoin.Ctx, i int) {
		a := uint64(o.Space()) + uint64(i)
		e := obliv.Elem{Kind: obliv.Filler, Aux: uint64(i)}
		if i < len(reqs) {
			a = reqs[i].Addr
			if reqs[i].Write {
				e = obliv.Elem{Key: a, Val: reqs[i].Val, Aux: uint64(i), Kind: obliv.Real}
			}
		}
		addrs.Set(c, i, a)
		wr.Set(c, i, e)
	})
	got := pram.Gather(c, sp, o.flat, addrs, nil)
	pram.ScatterResolve(c, sp, o.flat, wr)
	out := make([]uint64, len(reqs))
	for i := range out {
		out[i] = got.Data()[i].Val
	}
	return out
}

// levelAccess performs the fetch + re-plant + multicast + evict cycle for
// one tree level.
func (o *OPRAM) levelAccess(c *forkjoin.Ctx, sp *mem.Space, t *tree, state []perReq) {
	p := o.batch
	d := t.level
	isData := d == o.d
	srt := o.opt.Sorter

	// Per-request prefix at this level.
	prefix := func(i int) uint64 {
		if !state[i].real {
			return dummyKey + uint64(i)
		}
		return state[i].addr >> (o.d - d)
	}

	// Oblivious dedup: sort (prefix, reqIdx), mark group-firsts, resolve
	// the group aggregate — at the data level the winning write, at
	// intermediate levels the OR-mask of child bits walked by the group
	// (distinct addresses may share this level's prefix but diverge at the
	// next; every walked child needs a fresh label) — then sort back to
	// request order.
	w := mem.Alloc[obliv.Elem](sp, obliv.NextPow2(p))
	forkjoin.ParallelFor(c, 0, p, 0, func(c *forkjoin.Ctx, i int) {
		agg := uint64(0)
		if isData {
			if state[i].write {
				agg = 1<<63 | (state[i].wval &^ (uint64(1) << 63))
			}
		} else if state[i].real {
			bit := (state[i].addr >> (o.d - d - 1)) & 1
			agg = 1 << bit
		}
		w.Set(c, i, obliv.Elem{
			Key:  prefix(i)<<12 | uint64(i), // p < 2^12
			Val:  uint64(i),
			Aux:  prefix(i),
			Lbl:  agg,
			Kind: obliv.Real,
		})
	})
	if p >= 1<<12 {
		panic("oram: batch too large for dedup keys")
	}
	key1 := func(e obliv.Elem) uint64 {
		if e.Kind != obliv.Real {
			return obliv.InfKey
		}
		return e.Key
	}
	srt.Sort(c, sp, w, 0, w.Len(), key1)
	groupOf := func(e obliv.Elem) uint64 {
		if e.Kind != obliv.Real {
			return obliv.InfKey
		}
		return e.Aux
	}
	// Mark group-firsts.
	obliv.PropagateFirst(c, sp, w, groupOf,
		func(e obliv.Elem, i int) (uint64, bool) { return e.Val, e.Kind == obliv.Real },
		func(e obliv.Elem, i int, v uint64, ok bool) obliv.Elem {
			e.Mark = 0
			if e.Kind == obliv.Real && ok && v == e.Val {
				e.Mark = 1
			}
			return e
		})
	// Group aggregate: first-writer-wins (data level) or child-bit OR
	// (intermediate levels). Both combines are associative; the OR is also
	// commutative as AggregateSuffix requires, and first-writer-wins only
	// needs the suffix-at-group-first value, which the directional
	// combine below delivers.
	combine := func(x, y uint64) uint64 { return x | y }
	if isData {
		// AggregateSuffix scans the reversed array, so the second argument
		// is the element earlier in request order; preferring y makes the
		// FIRST writer win.
		combine = func(x, y uint64) uint64 {
			if y>>63 == 1 {
				return y
			}
			return x
		}
	}
	obliv.AggregateSuffix(c, sp, w, groupOf,
		func(e obliv.Elem) uint64 { return e.Lbl },
		combine,
		func(e obliv.Elem, i int, agg uint64) obliv.Elem {
			e.Lbl = agg
			return e
		})
	// Back to request order.
	key2 := func(e obliv.Elem) uint64 {
		if e.Kind != obliv.Real {
			return obliv.InfKey
		}
		return e.Val
	}
	srt.Sort(c, sp, w, 0, w.Len(), key2)
	bitsMask := make([]uint64, p)
	forkjoin.ParallelFor(c, 0, p, 0, func(c *forkjoin.Ctx, i int) {
		e := w.Get(c, i)
		state[i].uniq = e.Mark == 1
		if isData {
			state[i].winW = e.Lbl>>63 == 1
			state[i].winV = e.Lbl &^ (uint64(1) << 63)
		} else {
			bitsMask[i] = e.Lbl
		}
	})

	// Fetch phase: one path per request (dummy path for non-unique or
	// padded requests), then stash scan, then re-plant under fresh labels.
	// Sequential over requests: paths share top buckets, and the stash
	// "first free slot" placement must observe earlier placements.
	childOut := make([]uint64, p)
	for i := 0; i < p; i++ {
		st := &state[i]
		doReal := st.real && st.uniq
		leaf := o.dummyLeaf(d, i)
		q := dummyKey
		if doReal {
			leaf = st.curLbl
			q = prefix(i)
		}
		found, ok := o.fetchPath(c, t, leaf, q)
		if doReal && !ok {
			o.stats.Misses++
		}
		// Update the fetched entry and re-plant it under the fresh label
		// assigned by the parent level. Dummy requests plant a filler so
		// the stash scan count is request-independent.
		plant := obliv.Elem{} // filler
		if doReal && ok {
			freshSelf := o.freshLabel(d, q)
			newVal := found.Val
			if isData {
				st.out = found.Val
				if st.winW {
					newVal = st.winV
				}
			} else {
				// Multicast the full OLD packed label pair; refresh every
				// child bit some group member walks (the PRF makes the
				// labels the child-level re-plants will use identical).
				childOut[i] = found.Val
				for bit := uint64(0); bit < 2; bit++ {
					if bitsMask[i]>>bit&1 == 1 {
						newVal = setLabel(newVal, bit, o.freshLabel(d+1, 2*q+bit))
					}
				}
			}
			plant = obliv.Elem{Key: q, Val: newVal, Aux: uint64(freshSelf), Kind: obliv.Real}
		}
		o.plantStash(c, t, plant)
	}

	// Multicast the fetched result to duplicate requesters.
	sources := mem.Alloc[obliv.Elem](sp, p)
	dests := mem.Alloc[obliv.Elem](sp, p)
	forkjoin.ParallelFor(c, 0, p, 0, func(c *forkjoin.Ctx, i int) {
		s := obliv.Elem{Kind: obliv.Filler}
		if state[i].real && state[i].uniq {
			v := childOut[i]
			if isData {
				v = state[i].out
			}
			s = obliv.Elem{Key: prefix(i), Val: v, Kind: obliv.Real}
		}
		dst := obliv.Elem{Key: prefix(i), Kind: obliv.Real}
		if !state[i].real {
			dst.Kind = obliv.Filler
		}
		sources.Set(c, i, s)
		dests.Set(c, i, dst)
	})
	routed := obliv.SendReceive(c, sp, sources, dests, srt)
	forkjoin.ParallelFor(c, 0, p, 0, func(c *forkjoin.Ctx, i int) {
		r := routed.Get(c, i)
		c.Op(1)
		if state[i].real && r.Kind == obliv.Real {
			if isData {
				state[i].out = r.Val
			} else {
				// Extract this request's child label from the packed pair.
				bit := (state[i].addr >> (o.d - d - 1)) & 1
				state[i].curLbl = unpackLabel(r.Val, bit)
			}
		}
	})

	// Maintenance: deterministic reverse-lexicographic evictions.
	for e := 0; e < o.opt.EvictFactor*p; e++ {
		leaf := reverseBits(t.evCtr, d)
		t.evCtr++
		o.evictPath(c, sp, t, uint32(leaf))
	}

	// Stash occupancy diagnostics (raw access).
	occ := 0
	for _, e := range t.stash.Data() {
		if e.Kind == obliv.Real {
			occ++
		}
	}
	if occ > o.stats.StashMax {
		o.stats.StashMax = occ
	}
}

// dummyLeaf derives a uniform dummy path for padded/duplicate requests.
func (o *OPRAM) dummyLeaf(level, i int) uint32 {
	h := prng.Mix64(o.opt.Seed ^ 0xd0d0 ^ o.ctr<<20 ^ uint64(level)<<8 ^ uint64(i))
	return uint32(h & uint64((1<<level)-1))
}

// fetchPath scans the root-to-leaf path for leaf and the stash, removing
// and returning the entry with key q. Every slot is read and rewritten so
// the pattern depends only on the (revealed, uniform) leaf.
func (o *OPRAM) fetchPath(c *forkjoin.Ctx, t *tree, leaf uint32, q uint64) (obliv.Elem, bool) {
	z := o.opt.BucketCap
	var found obliv.Elem
	ok := false
	for _, pos := range t.layout.PathPos(int(leaf)) {
		for s := 0; s < z; s++ {
			idx := pos*z + s
			e := t.buckets.Get(c, idx)
			c.Op(1)
			if e.Kind == obliv.Real && e.Key == q && !ok {
				found, ok = e, true
				e = obliv.Elem{}
			}
			t.buckets.Set(c, idx, e)
		}
	}
	for s := 0; s < t.stash.Len(); s++ {
		e := t.stash.Get(c, s)
		c.Op(1)
		if e.Kind == obliv.Real && e.Key == q && !ok {
			found, ok = e, true
			e = obliv.Elem{}
		}
		t.stash.Set(c, s, e)
	}
	return found, ok
}

// plantStash writes e into the first free stash slot (fixed scan; every
// slot is rewritten). Filler plants perform the same scan so the pattern
// is independent of how many requests were unique.
func (o *OPRAM) plantStash(c *forkjoin.Ctx, t *tree, e obliv.Elem) {
	placed := false
	for s := 0; s < t.stash.Len(); s++ {
		cur := t.stash.Get(c, s)
		c.Op(1)
		if !placed && cur.Kind != obliv.Real {
			cur = e
			placed = true
		}
		t.stash.Set(c, s, cur)
	}
	if !placed && e.Kind == obliv.Real {
		o.stats.Overflows++
	}
}

// evictPath runs one greedy eviction along the path to leaf: collect path
// + stash, compute each block's deepest legal bucket level with fixed
// loops, then obliviously distribute via bin placement (bins = bucket
// levels plus one stash bin).
func (o *OPRAM) evictPath(c *forkjoin.Ctx, sp *mem.Space, t *tree, leaf uint32) {
	z := o.opt.BucketCap
	L := t.layout.Levels() // bucket levels on a path
	S := t.stash.Len()
	positions := t.layout.PathPos(int(leaf))

	nw := L*z + S
	w := mem.Alloc[obliv.Elem](sp, nw)
	for lvl := 0; lvl < L; lvl++ {
		for s := 0; s < z; s++ {
			e := t.buckets.Get(c, positions[lvl]*z+s)
			w.Set(c, lvl*z+s, e)
		}
	}
	for s := 0; s < S; s++ {
		w.Set(c, L*z+s, t.stash.Get(c, s))
	}

	// Deepest legal level per block: common prefix of (block leaf, evict
	// leaf) over L-1 bits. Invalid blocks get the stash group.
	legal := make([]int, nw)
	for k := 0; k < nw; k++ {
		e := w.Get(c, k)
		c.Op(1)
		if e.Kind != obliv.Real {
			legal[k] = -1
			continue
		}
		legal[k] = commonDepth(uint32(e.Aux), leaf, L)
	}
	// Greedy claim: levels deepest first; the fixed double loop keeps the
	// access pattern data-independent.
	target := make([]int, nw)
	for k := range target {
		target[k] = -1
	}
	fill := make([]int, L)
	for lvl := L - 1; lvl >= 0; lvl-- {
		for k := 0; k < nw; k++ {
			c.Op(1)
			if target[k] < 0 && legal[k] >= lvl && fill[lvl] < z {
				target[k] = lvl
				fill[lvl]++
			}
		}
	}

	// Distribute: bins 0..L-1 = bucket levels, bin L = stash. Bin
	// placement pads each bin with fillers to its capacity.
	binZ := S
	if z > binZ {
		binZ = z
	}
	out := mem.Alloc[obliv.Elem](sp, (L+1)*binZ)
	groups := make([]uint32, nw)
	for k := 0; k < nw; k++ {
		e := w.Get(c, k)
		g := uint32(L) // unplaced valid blocks stay in the stash bin
		if target[k] >= 0 {
			g = uint32(target[k])
		}
		groups[k] = g
		e.Tag = g
		w.Set(c, k, e)
	}
	lost := obliv.BinPlace(c, sp, w, out, L+1, binZ,
		func(e obliv.Elem) uint64 { return uint64(e.Tag) }, o.opt.Sorter)
	if lost > 0 {
		o.stats.Overflows += lost
	}

	// Write back buckets (first z of each level bin) and the stash (first
	// S of the stash bin).
	for lvl := 0; lvl < L; lvl++ {
		for s := 0; s < z; s++ {
			t.buckets.Set(c, positions[lvl]*z+s, out.Get(c, lvl*binZ+s))
		}
	}
	for s := 0; s < S; s++ {
		t.stash.Set(c, s, out.Get(c, L*binZ+s))
	}
}

// commonDepth returns the deepest bucket level (0-based, < L) on the path
// to evictLeaf at which a block routed to blockLeaf may live.
func commonDepth(blockLeaf, evictLeaf uint32, L int) int {
	// Leaves have L-1 bits; depth d requires agreement on the top d bits.
	bits := L - 1
	x := blockLeaf ^ evictLeaf
	d := 0
	for b := bits - 1; b >= 0; b-- {
		if x>>uint(b)&1 != 0 {
			break
		}
		d++
	}
	return d
}

// reverseBits reverses the low `bits` bits of v (the reverse-lexicographic
// eviction order of [CCS17]/Path-ORAM).
func reverseBits(v uint64, bits int) uint64 {
	var r uint64
	for b := 0; b < bits; b++ {
		r = r<<1 | (v>>uint(b))&1
	}
	return r
}
