package pram

import (
	"oblivmc/internal/bitonic"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
)

// passGrain is the leaf size of the gatherer's and scatterer's elementwise
// passes outside metered mode, obliv's pass grain: cheap loop bodies, where
// a leaf of forkjoin's default 64 items costs as much in fork closures as
// in work. Metered runs are pinned to grain 1, so no trace depends on it.
const passGrain = 1 << 10

// Gather obliviously reads memory at the p requested addresses: the result
// parallels addrs, entry i holding Key = addrs[i], Aux = i and Val =
// memory[addrs[i]] with Kind = Real, or Val = 0 with Kind = Filler if the
// address is out of range (⊥). It is one gather of a fresh Gatherer: one
// recorded sort of the P = NextPow2(p) request addresses, one send-receive
// that merges them with the cells (already in address order) over
// NextPow2(s+P) slots and un-merges the routed values, and one un-sort
// that replays the recorded sort backwards over those values —
// O(Wsort(p) + (s+p) log(s+p)) with a single sort, all of it over word
// planes. Kind comes from the caller's own addresses, not from the
// routing: it is this entry point's convenience for the reproduction's
// callers that test ⊥. srt is unused — the sorts run on the bitonic
// network whatever the caller's sorter is — and stays only because the
// benchmark harness passes it, until that harness stops calling Gather
// (ROADMAP item 1 slice 2).
func Gather(c *forkjoin.Ctx, sp *mem.Space, memory *mem.Array[uint64], addrs *mem.Array[uint64], srt obliv.ScheduledSorter) *mem.Array[obliv.Elem] {
	s, p := memory.Len(), addrs.Len()
	vals := NewGatherer(c, sp, s, addrs, nil).Values(c, sp, memory)
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
// kernels' static endpoint requests): the request addresses are sorted
// once, as one word plane with the sort's swap record kept, and each
// gather is one send-receive with both sides in key order (merge,
// propagate, un-merge of the routed values — no sort) followed by an
// un-sort of those values by replay, both on the cache-agnostic bitonic
// network (bitonic.SortRecorded, a sort pass, and bitonic.Unsort). Only
// words travel: a gatherer holds the sorted addresses, a value plane and
// its scratch, the record, and the send-receive's work space, all
// allocated once, so a gather allocates no work array. Readdress re-sorts it onto another address list of the same
// length, on the same planes and record (a pointer jump's addresses). A
// Gatherer's gathers must be issued sequentially (they share those
// planes) under the kind of executor (metered or not) it was built under.
type Gatherer struct {
	s         int
	keys      *obliv.KeySchedule // the NextPow2(p) request keys in address order, padding last
	vals, scr *obliv.KeySchedule // the routed values and the sort's and un-sort's scratch
	out       *mem.Array[uint64] // the first p routed values: what a gather returns
	rec       *mem.Array[uint64] // the request sort's swap record
	route     *obliv.Router
}

// NewGatherer builds the gatherer of addrs against memories of s cells:
// the padded request addresses, record-sorted. An address at or beyond s
// is out of range and will read ⊥. addrs is read here only. The gathers
// route on route, which must hold NextPow2(s+NextPow2(len(addrs))) slots
// and may be shared with other sequential users; a nil route allocates the
// gatherer's own. The access pattern is a function of (s, len(addrs)) and
// the executor kind alone.
func NewGatherer(c *forkjoin.Ctx, sp *mem.Space, s int, addrs *mem.Array[uint64], route *obliv.Router) *Gatherer {
	p := addrs.Len()
	n := obliv.NextPow2(p)
	g := &Gatherer{s: s, keys: obliv.AllocKeySchedule(sp, n, 1)}
	g.vals = obliv.AllocKeySchedule(sp, n, 1)
	g.scr = obliv.AllocKeySchedule(sp, n, 1) // the sort's scratch, then the un-sort's
	g.out = g.vals.Plane(0).View(0, p)
	g.rec = mem.Alloc[uint64](sp, bitonic.RecordWords(c, n, 0))
	if route == nil {
		route = obliv.NewRouter(sp, s, n)
	}
	g.route = route
	g.Readdress(c, sp, addrs)
	return g
}

// Readdress re-sorts the gatherer onto addrs, which must be as long as the
// list it was built on: its later gathers read at these addresses. It
// writes the gatherer's own key plane and record and allocates nothing, at
// the cost of NewGatherer's key pass and recorded sort; addrs is read here
// only.
func (g *Gatherer) Readdress(c *forkjoin.Ctx, sp *mem.Space, addrs *mem.Array[uint64]) {
	p, s := g.out.Len(), g.s
	if addrs.Len() != p {
		panic("pram: Readdress address count differs from the gatherer's")
	}
	keys := g.keys.Plane(0)
	n := keys.Len()
	forkjoin.ParallelRange(c, 0, n, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			// Request i keys its address, or a distinct not-found key beyond
			// every cell; the padding keys InfKey and sorts last.
			key := obliv.InfKey
			if i < p {
				a := addrs.Get(c, i)
				key = a
				c.Op(1)
				if a >= uint64(s) {
					key = uint64(s) + uint64(i)
				}
			}
			keys.Set(c, i, key)
		}
	})
	bitonic.SortRecorded(c, g.keys, g.scr, 1, g.rec, n)
}

// Values reads memory, which must hold s cells, at the gatherer's
// addresses: entry i of the result is memory[addrs[i]], or 0 if the address
// is out of range. The result is the gatherer's own plane, valid until its
// next gather.
func (g *Gatherer) Values(c *forkjoin.Ctx, sp *mem.Space, memory *mem.Array[uint64]) *mem.Array[uint64] {
	if memory.Len() != g.s {
		panic("pram: Gather memory length differs from the gatherer's")
	}
	// The cells, keyed by their index, send to the sorted requests; a
	// request nothing is routed to reads 0. The un-sort takes each value
	// home.
	v := g.vals.Plane(0)
	g.route.Route(c, nil, memory, g.keys.Plane(0), nil, v)
	bitonic.Unsort(c, g.vals, g.scr, g.rec, v.Len())
	return g.out
}

// ScatterResolve obliviously applies a batch of priority-CRCW writes to
// memory: each request Elem carries Key = address, Val = value, Aux =
// priority (lower wins, any value), with Kind = Filler for no-ops; a Real
// request addressed at or beyond len(memory) writes nothing. Duplicate
// addresses are suppressed by one oblivious sort (§4.1 write step) of
// (address, priority) word planes with the value carried — no element
// moves — after which the winner of each address is the first entry of
// its run; a send-receive then updates every memory cell (cells whose
// address receives no write keep their value; every cell is rewritten so
// the pattern is fixed). Its sources send only the first entry of each
// address, by a neighbour compare, and both of its sides are already in
// address order, so it is a merge and an un-merge with no sort: cost one
// sort of NextPow2(p) plus O((s+p) log(s+p)). Requests tied on (address,
// priority) are ordered by the network, the same way on every executor,
// and the first of them wins. It is one write of a fresh Scatterer.
func ScatterResolve(c *forkjoin.Ctx, sp *mem.Space, memory *mem.Array[uint64], reqs *mem.Array[obliv.Elem]) {
	scatterResolve(c, sp, memory, reqs, false)
}

// ScatterResolveMin is ScatterResolve with combining update semantics:
// each addressed cell keeps min(current value, winning request's value)
// instead of being overwritten. The access pattern is identical to
// ScatterResolve's up to one fixed combine pass over the cells. The graph
// layer's label-hooking steps use it so labels only ever decrease
// regardless of write ordering. srt is unused, as Gather's is, and stays
// for the same reason.
func ScatterResolveMin(c *forkjoin.Ctx, sp *mem.Space, memory *mem.Array[uint64], reqs *mem.Array[obliv.Elem], srt obliv.ScheduledSorter) {
	scatterResolve(c, sp, memory, reqs, true)
}

func scatterResolve(c *forkjoin.Ctx, sp *mem.Space, memory *mem.Array[uint64], reqs *mem.Array[obliv.Elem], combineMin bool) {
	// The request elements into the planes, addressed as clamp leaves them.
	w := NewScatterer(sp, memory.Len(), reqs.Len(), nil)
	s, p := uint64(w.s), reqs.Len()
	addr, prio, val := w.ws.Plane(0), w.ws.Plane(1), w.ws.Plane(2)
	forkjoin.ParallelRange(c, 0, addr.Len(), passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			var e obliv.Elem
			if i < p {
				e = reqs.Get(c, i)
			}
			a := obliv.InfKey
			c.Op(1)
			if e.Kind == obliv.Real && e.Key < s {
				a = e.Key
			}
			addr.Set(c, i, a)
			prio.Set(c, i, e.Aux)
			val.Set(c, i, e.Val)
		}
	})
	w.write(c, sp, memory, combineMin)
}

// Scatterer is the §4.1 write step for a fixed shape — p requests into
// memories of s cells — for callers that write that shape again and again
// (the graph kernels' hook scatters, once per round): it holds the
// (address, priority, value) request planes over NextPow2(p) entries,
// their sort scratch (a write's sort is bitonic.SortRecorded with no
// record, a sort pass), a min-combining write's routed plane and the
// send-receive's work space, so a write allocates no work array. The
// caller fills the first p entries of the request planes (Requests) and
// calls Resolve or ResolveMin: ScatterResolve and ScatterResolveMin with no
// request elements. Its writes must be issued sequentially under the kind
// of executor (metered or not) it was built under.
type Scatterer struct {
	s               int
	ws, wscr        *obliv.KeySchedule // address, priority and value planes, and the sort's scratch
	addr, prio, val *mem.Array[uint64] // the first p entries of each plane: the requests
	routed          *mem.Array[uint64] // a min-combining write's routed values
	route           *obliv.Router
}

// NewScatterer allocates from sp the request planes of p requests into
// memories of s cells and their scratch. The writes route on route, which
// must hold NextPow2(p+s) slots and may be shared with other sequential
// users; a nil route allocates the scatterer's own at its first write,
// after the routed plane of a first min-combining write.
func NewScatterer(sp *mem.Space, s, p int, route *obliv.Router) *Scatterer {
	n := obliv.NextPow2(p)
	w := &Scatterer{s: s, route: route}
	w.ws = obliv.AllocKeySchedule(sp, n, 3)
	w.wscr = obliv.AllocKeySchedule(sp, n, 3)
	w.addr, w.prio, w.val = w.ws.Plane(0).View(0, p), w.ws.Plane(1).View(0, p), w.ws.Plane(2).View(0, p)
	return w
}

// Requests returns the request planes, p entries each: request i writes
// val[i] to cell addr[i] with priority prio[i] (lower wins, any value); an
// address at or beyond s — InfKey, say — writes nothing. A write consumes
// them: the caller fills all three before each one.
func (w *Scatterer) Requests() (addr, prio, val *mem.Array[uint64]) {
	return w.addr, w.prio, w.val
}

// Resolve applies the requests to memory, which must hold s cells, as
// ScatterResolve does.
func (w *Scatterer) Resolve(c *forkjoin.Ctx, sp *mem.Space, memory *mem.Array[uint64]) {
	w.clamp(c)
	w.write(c, sp, memory, false)
}

// ResolveMin applies the requests to memory, which must hold s cells, as
// ScatterResolveMin does.
func (w *Scatterer) ResolveMin(c *forkjoin.Ctx, sp *mem.Space, memory *mem.Array[uint64]) {
	w.clamp(c)
	w.write(c, sp, memory, true)
}

// clamp addresses every request that writes nothing, the pow2 padding
// included, InfKey: it sorts last, so the first p sorted entries are the
// send-receive's ascending sources.
func (w *Scatterer) clamp(c *forkjoin.Ctx) {
	s, p := uint64(w.s), w.addr.Len()
	addr := w.ws.Plane(0)
	forkjoin.ParallelRange(c, 0, addr.Len(), passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			a := obliv.InfKey
			if i < p {
				a = addr.Get(c, i)
				c.Op(1)
				if a >= s {
					a = obliv.InfKey
				}
			}
			addr.Set(c, i, a)
		}
	})
}

// write sorts the loaded request planes by (address, priority) and routes
// each address's first — winning — value to memory.
func (w *Scatterer) write(c *forkjoin.Ctx, sp *mem.Space, memory *mem.Array[uint64], combineMin bool) {
	s := w.s
	if memory.Len() != s {
		panic("pram: Scatter memory length differs from the scatterer's")
	}
	bitonic.SortRecorded(c, w.ws, w.wscr, 2, nil, w.ws.Len())

	// Route winner values to the memory cells, keyed by their index; every
	// cell is rewritten. A cell no winner names reads its own current
	// value, so an overwrite routes straight into memory, and the min
	// combine of that value with itself leaves the cell unchanged.
	out := memory
	if combineMin {
		if w.routed == nil {
			w.routed = mem.Alloc[uint64](sp, s)
		}
		out = w.routed
	}
	if w.route == nil {
		w.route = obliv.NewRouter(sp, w.addr.Len(), s)
	}
	w.route.Route(c, w.addr, w.val, nil, memory, out)
	if !combineMin {
		return
	}
	forkjoin.ParallelRange(c, 0, s, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			v, old := out.Get(c, i), memory.Get(c, i)
			c.Op(1)
			memory.Set(c, i, min(v, old))
		}
	})
}

// RunOblivious executes m under the oblivious simulation of Theorem 4.1
// and returns the final memory. With a fixed machine shape (p, s, steps),
// the access pattern is independent of memInit and of every value read —
// the property asserted by the package tests.
func RunOblivious(c *forkjoin.Ctx, sp *mem.Space, m Machine, memInit []uint64) []uint64 {
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
		fetched := Gather(c, sp, memory, addrs, nil)

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
		ScatterResolve(c, sp, memory, reqs)
	}
	out := make([]uint64, s)
	copy(out, memory.Data())
	return out
}
