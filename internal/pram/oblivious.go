package pram

import (
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
)

// Gather obliviously reads memory at the p requested addresses: the result
// parallels addrs, entry i holding Val = memory[addrs[i]] with Kind = Real,
// or Kind = Filler if the address is out of range. One send-receive with
// the memory cells as senders (§4.1 read step); the cells are already in
// address order, so the send-receive sorts only the p requests (by address,
// and back to request order) and merges them with the cells: two sorts of
// NextPow2(p) plus a merge and an un-merge of NextPow2(s+p), O(Wsort(p) +
// (s+p) log(s+p)).
func Gather(c *forkjoin.Ctx, sp *mem.Space, memory *mem.Array[uint64], addrs *mem.Array[uint64], srt obliv.ScheduledSorter) *mem.Array[obliv.Elem] {
	s, p := memory.Len(), addrs.Len()
	sources := mem.Alloc[obliv.Elem](sp, s)
	forkjoin.ParallelRange(c, 0, s, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			sources.Set(c, i, obliv.Elem{Key: uint64(i), Val: memory.Get(c, i), Kind: obliv.Real})
		}
	})
	dests := mem.Alloc[obliv.Elem](sp, p)
	forkjoin.ParallelRange(c, 0, p, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			a := addrs.Get(c, i)
			key := a
			if a >= uint64(s) {
				// Distinct not-found keys (beyond every memory cell key).
				key = uint64(s) + uint64(i)
			}
			dests.Set(c, i, obliv.Elem{Key: key, Kind: obliv.Real})
		}
	})
	return obliv.SendReceiveSorted(c, sp, sources, dests, srt, false)
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
	// too; every cell is rewritten.
	dests := mem.Alloc[obliv.Elem](sp, s)
	forkjoin.ParallelRange(c, 0, s, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			dests.Set(c, i, obliv.Elem{Key: uint64(i), Kind: obliv.Real})
		}
	})
	routed := obliv.SendReceiveSorted(c, sp, w.View(0, p), dests, srt, true)
	forkjoin.ParallelRange(c, 0, s, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			r := routed.Get(c, i)
			old := memory.Get(c, i)
			v := old
			c.Op(1)
			if r.Kind == obliv.Real && (!combineMin || r.Val < old) {
				v = r.Val
			}
			memory.Set(c, i, v)
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
