package pram

import (
	"oblivmc/internal/bitonic"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
)

// Gather obliviously reads memory at the p requested addresses: the result
// parallels addrs, entry i holding Key = addrs[i], Aux = i and Val =
// memory[addrs[i]] with Kind = Real, or Val = 0 with Kind = Filler if the
// address is out of range (⊥). It is one gather of a fresh Gatherer: one
// recorded sort of the P = NextPow2(p) requests by address, one
// send-receive that merges them with the cells (already in address order)
// over NextPow2(s+P) slots and un-merges the routed values, and one
// un-sort that replays the recorded sort backwards over those values —
// O(Wsort(p) + (s+p) log(s+p)) with a single sort. Kind comes from the
// caller's own addresses, not from the routing: it is this entry point's
// convenience for the reproduction's callers that test ⊥.
func Gather(c *forkjoin.Ctx, sp *mem.Space, memory *mem.Array[uint64], addrs *mem.Array[uint64], srt obliv.ScheduledSorter) *mem.Array[obliv.Elem] {
	s, p := memory.Len(), addrs.Len()
	vals := NewGatherer(c, sp, s, addrs, srt).Values(c, sp, memory)
	out := mem.Alloc[obliv.Elem](sp, p)
	forkjoin.ParallelRange(c, 0, p, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			a := addrs.Get(c, i)
			e := obliv.Elem{Key: a, Val: vals.Get(c, i), Aux: uint64(i), Kind: obliv.Real}
			c.Op(1)
			if a >= uint64(s) {
				e.Kind = obliv.Filler
			}
			out.Set(c, i, e)
		}
	})
	return out
}

// Gatherer is the §4.1 read step over a fixed address list, for callers
// that read the same addresses of changing memory contents (the graph
// kernels' static endpoint requests): the requests are sorted by address
// once, with the sort's swap record kept, and each gather is one
// send-receive with both sides in key order (merge, propagate, un-merge of
// the routed values — no sort) followed by an un-sort of those values by
// replay. Only value words travel back: the un-sort runs over the request
// sort's key plane and key scratch, which are dead once the sort is done,
// so a gatherer holds its sorted requests, two words per request and the
// record, and no element scratch. A Gatherer's gathers must be issued
// sequentially (they share those planes) under the kind of executor
// (metered or not) it was built under.
type Gatherer struct {
	srt        obliv.RecordingSorter
	s, p       int
	reqs       *mem.Array[obliv.Elem] // the NextPow2(p) requests in address order, fillers last
	vals, vscr *obliv.KeySchedule     // the sort's key plane and scratch: the un-sort's plane and scratch
	rec        *mem.Array[uint64]     // the request sort's swap record
}

// NewGatherer builds the gatherer of addrs against memories of s cells:
// the padded request array, record-sorted by address through srt — or
// through the cache-agnostic bitonic network if srt does not record. An
// address at or beyond s is out of range and will read ⊥. addrs is read
// here only. The access pattern is a function of (s, len(addrs)) and the
// executor kind alone.
func NewGatherer(c *forkjoin.Ctx, sp *mem.Space, s int, addrs *mem.Array[uint64], srt obliv.ScheduledSorter) *Gatherer {
	rs := bitonic.Recorder(srt)
	p := addrs.Len()
	n := obliv.NextPow2(p)
	g := &Gatherer{srt: rs, s: s, p: p, reqs: mem.Alloc[obliv.Elem](sp, n)}
	g.vals = obliv.AllocKeySchedule(sp, n, 1)
	g.vscr = obliv.AllocKeySchedule(sp, n, 1)
	scr := mem.Alloc[obliv.Elem](sp, n) // the sort's alone
	g.rec = mem.Alloc[uint64](sp, rs.RecordWords(c, n))
	keys := g.vals.Plane(0)
	forkjoin.ParallelRange(c, 0, n, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			// Request i keys its address, or a distinct not-found key beyond
			// every cell; the padding keys InfKey and sorts last.
			e, key := obliv.Elem{}, obliv.InfKey
			if i < p {
				a := addrs.Get(c, i)
				key = a
				c.Op(1)
				if a >= uint64(s) {
					key = uint64(s) + uint64(i)
				}
				e = obliv.Elem{Key: key, Aux: uint64(i), Kind: obliv.Real}
			}
			g.reqs.Set(c, i, e)
			keys.Set(c, i, key)
		}
	})
	rs.SortRecorded(c, sp, g.reqs, g.vals, scr, g.vscr, g.rec, 0, n)
	return g
}

// Values reads memory, which must hold s cells, at the gatherer's
// addresses: entry i of the result is memory[addrs[i]], or 0 if the address
// is out of range. The result is the gatherer's own plane, valid until its
// next gather.
func (g *Gatherer) Values(c *forkjoin.Ctx, sp *mem.Space, memory *mem.Array[uint64]) *mem.Array[uint64] {
	if memory.Len() != g.s {
		panic("pram: Gather memory length differs from the gatherer's")
	}
	sources := mem.Alloc[obliv.Elem](sp, g.s)
	forkjoin.ParallelRange(c, 0, g.s, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			sources.Set(c, i, obliv.Elem{Key: uint64(i), Val: memory.Get(c, i), Kind: obliv.Real})
		}
	})
	// The routed values parallel the sorted requests, whose Val of 0 is
	// what ⊥ reads; the un-sort takes each one home.
	v := g.vals.Plane(0)
	obliv.SendReceiveSorted(c, sp, sources, g.reqs, v)
	g.srt.Unsort(c, sp, g.vals, g.vscr, g.rec, 0, v.Len())
	return v.View(0, g.p)
}

// ScatterResolve obliviously applies a batch of priority-CRCW writes to
// memory: each request Elem carries Key = address, Val = value, Aux =
// priority (lower wins, any value), with Kind = Filler for no-ops. Tag
// must be zero, as every caller leaves it: the request sort keys on the
// bare address, and its TiePos tie-break reads Tag before Aux. Duplicate
// addresses are suppressed by one oblivious sort by address + propagation
// (§4.1 write step), then a send-receive updates every memory cell (cells
// whose address receives no write keep their value; every cell is
// rewritten so the pattern is fixed). Both sides of that send-receive are
// already in address order, so it is a merge and an un-merge with no sort:
// cost one sort of NextPow2(p) plus O((s+p) log(s+p)).
func ScatterResolve(c *forkjoin.Ctx, sp *mem.Space, memory *mem.Array[uint64], reqs *mem.Array[obliv.Elem], srt obliv.ScheduledSorter) {
	scatterResolve(c, sp, memory, reqs, srt, false)
}

// ScatterResolveMin is ScatterResolve with combining update semantics:
// each addressed cell keeps min(current value, winning request's value)
// instead of being overwritten. The access pattern is identical to
// ScatterResolve's — the combine happens inside the fixed cell-rewrite
// pass. The graph layer's label-hooking steps use it so labels only ever
// decrease regardless of write ordering.
func ScatterResolveMin(c *forkjoin.Ctx, sp *mem.Space, memory *mem.Array[uint64], reqs *mem.Array[obliv.Elem], srt obliv.ScheduledSorter) {
	scatterResolve(c, sp, memory, reqs, srt, true)
}

func scatterResolve(c *forkjoin.Ctx, sp *mem.Space, memory *mem.Array[uint64], reqs *mem.Array[obliv.Elem], srt obliv.ScheduledSorter, combineMin bool) {
	s, p := memory.Len(), reqs.Len()
	// Copy requests into a pow2 working array and sort by address; TiePos
	// orders each address's requests by priority (Aux), fillers last. Every
	// filler, the pow2 padding included, is keyed InfKey: the sorted
	// requests are the send-receive's sorted sources below, and a filler
	// keeping its Key (0 for the padding) would break their ascending run.
	w := mem.Alloc[obliv.Elem](sp, obliv.NextPow2(p))
	forkjoin.ParallelRange(c, 0, w.Len(), 0, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := obliv.Elem{}
			if i < p {
				e = reqs.Get(c, i)
				e.Mark = 0
			}
			c.Op(1)
			if e.Kind != obliv.Real {
				e.Key = obliv.InfKey
			}
			w.Set(c, i, e)
		}
	})
	addrOf := func(e obliv.Elem) uint64 { return e.Key }
	obliv.SortKeyed(c, sp, w, w.Len(), addrOf, srt)

	// The first request of each address group wins; all others become
	// fillers. Propagate the winner's priority and compare. A loser keeps
	// its address: it sorts after that address's Real requests, so the run
	// still ascends in the send-receive's (Key, TiePos) order.
	obliv.PropagateFirst(c, sp, w, addrOf,
		func(e obliv.Elem, i int) (uint64, bool) { return e.Aux, e.Kind == obliv.Real },
		func(e obliv.Elem, i int, v uint64, ok bool) obliv.Elem {
			if e.Kind == obliv.Real && (!ok || e.Aux != v) {
				e.Kind = obliv.Filler
			}
			return e
		})

	// Route winner values to the memory cells, which are in address order
	// too; every cell is rewritten. A cell no winner names reads its
	// destination's own value: its current one when overwriting, so the
	// routing writes memory directly, and the min identity when combining.
	dests := mem.Alloc[obliv.Elem](sp, s)
	forkjoin.ParallelRange(c, 0, s, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := obliv.Elem{Key: uint64(i), Val: ^uint64(0), Kind: obliv.Real}
			if !combineMin {
				e.Val = memory.Get(c, i)
			}
			dests.Set(c, i, e)
		}
	})
	if !combineMin {
		obliv.SendReceiveSorted(c, sp, w.View(0, p), dests, memory)
		return
	}
	routed := mem.Alloc[uint64](sp, s)
	obliv.SendReceiveSorted(c, sp, w.View(0, p), dests, routed)
	forkjoin.ParallelRange(c, 0, s, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			v, old := routed.Get(c, i), memory.Get(c, i)
			c.Op(1)
			memory.Set(c, i, min(v, old))
		}
	})
}

// RunOblivious executes m under the oblivious simulation of Theorem 4.1
// and returns the final memory. With a fixed machine shape (p, s, steps),
// the access pattern is independent of memInit and of every value read —
// the property asserted by the package tests.
func RunOblivious(c *forkjoin.Ctx, sp *mem.Space, m Machine, memInit []uint64, srt obliv.ScheduledSorter) []uint64 {
	p, s := m.Procs(), m.Space()
	memory := mem.Alloc[uint64](sp, s)
	for i, v := range memInit {
		memory.Data()[i] = v
	}
	locals := makeLocals(m)

	addrs := mem.Alloc[uint64](sp, p)
	reqs := mem.Alloc[obliv.Elem](sp, p)
	for t := 0; t < m.Steps(); t++ {
		// Read phase: collect addresses (no-read procs request an
		// out-of-range address and receive ⊥).
		forkjoin.ParallelFor(c, 0, p, 1, func(c *forkjoin.Ctx, i int) {
			a := m.ReadAddr(t, i, locals[i])
			c.Op(int64(m.LocalWords()))
			if a < 0 || a >= s {
				a = s + i
			}
			addrs.Set(c, i, uint64(a))
		})
		fetched := Gather(c, sp, memory, addrs, srt)

		// Local computation phase.
		forkjoin.ParallelFor(c, 0, p, 1, func(c *forkjoin.Ctx, i int) {
			f := fetched.Get(c, i)
			wa, wv := m.Compute(t, i, locals[i], f.Val, f.Kind == obliv.Real)
			c.Op(int64(m.LocalWords()))
			e := obliv.Elem{Aux: uint64(i)}
			if wa >= 0 && wa < s {
				e.Key = uint64(wa)
				e.Val = wv
				e.Kind = obliv.Real
			}
			reqs.Set(c, i, e)
		})

		// Write phase with oblivious conflict resolution.
		ScatterResolve(c, sp, memory, reqs, srt)
	}
	out := make([]uint64, s)
	copy(out, memory.Data())
	return out
}
