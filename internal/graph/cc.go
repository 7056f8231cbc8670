package graph

import (
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/pram"
)

// ConnectedComponentsOblivious labels the components of an undirected
// graph with the Awerbuch–Shiloach variant of Shiloach–Vishkin [SV82],
// realized as O(log n) iterations of O(1) oblivious bulk memory operations
// (gather / conflict-resolved scatter), each within the sorting bound —
// the Theorem 5.2(ii) route, applied to the PRAM algorithm in the "slightly
// non-blackbox" style of §5.3. The iteration count is the fixed public
// bound 3·⌈log₂ n⌉ + 5, so the access pattern depends only on (n, m).
//
// The run allocates its PRAM work space once: gatherers on the static
// endpoint lists, whose sorts are recorded before the first iteration and
// only replayed after, the request planes of the hook and star-test
// scatters, one jumper for the star tests and the jump, and one router all
// of them share. An iteration sorts 7 times: 2 per star test, 1 per hook
// and 1 for the jump.
//
// Returns a label per vertex; two vertices share a label iff connected.
func ConnectedComponentsOblivious(c *forkjoin.Ctx, sp *mem.Space, n int, edges [][2]int) []int {
	if n == 0 {
		return nil
	}
	m2 := 2 * len(edges)

	d := mem.Alloc[uint64](sp, n)
	forkjoin.ParallelRange(c, 0, n, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for v := lo; v < hi; v++ {
			d.Set(c, v, uint64(v))
		}
	})

	// Static endpoint arrays, both orientations.
	us := mem.Alloc[uint64](sp, max(m2, 1))
	vs := mem.Alloc[uint64](sp, max(m2, 1))
	forkjoin.ParallelRange(c, 0, len(edges), 0, func(c *forkjoin.Ctx, lo, hi int) {
		for e := lo; e < hi; e++ {
			us.Set(c, 2*e, uint64(edges[e][0]))
			vs.Set(c, 2*e, uint64(edges[e][1]))
			us.Set(c, 2*e+1, uint64(edges[e][1]))
			vs.Set(c, 2*e+1, uint64(edges[e][0]))
		}
	})

	// One router serves every send-receive of the run: n + NextPow2(2m)
	// slots for the endpoint gathers and the hook scatter, n + NextPow2(n)
	// for the star tests and the jump.
	route := obliv.NewRouter(sp, n, max(obliv.NextPow2(m2), obliv.NextPow2(n)))
	star := mem.Alloc[uint64](sp, n)
	jumps := newJumper(sp, n, route)
	clear := pram.NewScatterer(sp, n, n, route)
	ds := mem.Alloc[uint64](sp, n) // D[w]<<1 | star[w]: the tail gather reads both
	var gu, gv *pram.Gatherer
	var hooks *pram.Scatterer
	if m2 > 0 {
		gu = pram.NewGatherer(c, sp, n, us, route)
		gv = pram.NewGatherer(c, sp, n, vs, route)
		hooks = pram.NewScatterer(sp, n, m2, route)
	}
	// hook issues the (un)conditional star-hooking writes of one AS step:
	// a star tail u hooks its root D[u] onto D[v], the lowest edge winning
	// a contested root.
	hook := func(unconditional bool) {
		if m2 == 0 {
			return
		}
		forkjoin.ParallelRange(c, 0, n, 0, func(c *forkjoin.Ctx, lo, hi int) {
			for w := lo; w < hi; w++ {
				ds.Set(c, w, d.Get(c, w)<<1|star.Get(c, w))
			}
		})
		dsu := gu.Values(c, sp, ds)
		dv := gv.Values(c, sp, d)
		addr, prio, val := hooks.Requests()
		forkjoin.ParallelRange(c, 0, m2, 0, func(c *forkjoin.Ctx, lo, hi int) {
			for e := lo; e < hi; e++ {
				x := dsu.Get(c, e)
				duv, dvv := x>>1, dv.Get(c, e)
				cond := dvv < duv
				if unconditional {
					cond = dvv != duv
				}
				a := obliv.InfKey
				c.Op(1)
				if x&1 == 1 && cond {
					a = duv
				}
				addr.Set(c, e, a)
				prio.Set(c, e, uint64(e))
				val.Set(c, e, dvv)
			}
		})
		hooks.Resolve(c, sp, d)
	}

	iters := 3*obliv.Log2Ceil(n) + 5
	for it := 0; it < iters; it++ {
		// Round boundaries are a function of n alone (fixed iteration
		// bound), so a cancellation here reveals only the round index.
		c.Check("graph.round")
		// Conditional hooking: if star(u) and D[v] < D[u], D[D[u]] <- D[v].
		computeStars(c, sp, jumps, clear, d, star)
		hook(false)
		// Unconditional hooking for stagnant stars: if star(u) and
		// D[v] != D[u], hook regardless.
		computeStars(c, sp, jumps, clear, d, star)
		hook(true)
		// Pointer jumping: D[w] <- D[D[w]].
		jumps.jump(c, sp, d)
	}

	out := make([]int, n)
	for v := range out {
		out[v] = int(d.Data()[v])
	}
	return out
}

// computeStars fills star[w] ∈ {0,1}: star(w) iff w's tree in the D forest
// is a star (everything points directly at the root). Its work space is
// the run's: the jumper, whose gatherer reads D[D[w]] and then star[D[w]]
// at the one address list D — the second read a replay, with no sort —
// and clear, a scatterer of n requests into the n cells of star.
func computeStars(c *forkjoin.Ctx, sp *mem.Space, j *jumper, clear *pram.Scatterer, d, star *mem.Array[uint64]) {
	n := d.Len()
	dw := j.dw
	mem.CopyPar(c, dw, 0, d, 0, n)
	dd := j.gather(c, sp, d, dw) // D[D[w]]

	// If D[w] != D[D[w]]: star[w] = 0 and star[D[D[w]]] = 0.
	addr, prio, val := clear.Requests()
	forkjoin.ParallelRange(c, 0, n, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for w := lo; w < hi; w++ {
			dv := dw.Get(c, w)
			ddv := dd.Get(c, w)
			z, a := uint64(1), obliv.InfKey
			c.Op(1)
			if ddv != dv {
				z, a = 0, ddv
			}
			star.Set(c, w, z)
			addr.Set(c, w, a)
			prio.Set(c, w, 0)
			val.Set(c, w, 0)
		}
	})
	clear.Resolve(c, sp, star)
	// star[w] = star[w] ∧ star[D[w]]: a vertex cleared above stays cleared
	// even when its parent (a child of the root) was not.
	sOfD := j.g.Values(c, sp, star)
	forkjoin.ParallelRange(c, 0, n, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for w := lo; w < hi; w++ {
			star.Set(c, w, star.Get(c, w)&sOfD.Get(c, w))
		}
	})
}

// jumper is pointer jumping over one n-cell D for a whole run: one
// gatherer of n cells at n addresses, re-sorted onto each address list
// (pram.Gatherer.Readdress), and the copy of D that addresses a jump, so a
// gather after the first allocates no work array. Its gather serves any
// other such read in between (the star test, MSF's 2-cycle check), and
// any n reads of n cells: a tree-contraction round reads its parent,
// sibling and relabel addresses through one, the siblings held in dw.
type jumper struct {
	route *obliv.Router  // nil: the gatherer's own
	g     *pram.Gatherer // built by the first gather
	dw    *mem.Array[uint64]
}

// newJumper allocates a jumper over n cells whose gathers route on route
// (nil: the gatherer's own).
func newJumper(sp *mem.Space, n int, route *obliv.Router) *jumper {
	return &jumper{route: route, dw: mem.Alloc[uint64](sp, n)}
}

// gather reads memory at addrs on the jumper's gatherer: the values alone,
// in request order.
func (j *jumper) gather(c *forkjoin.Ctx, sp *mem.Space, memory, addrs *mem.Array[uint64]) *mem.Array[uint64] {
	if j.g == nil {
		j.g = pram.NewGatherer(c, sp, memory.Len(), addrs, j.route)
	} else {
		j.g.Readdress(c, sp, addrs)
	}
	return j.g.Values(c, sp, memory)
}

// jump applies one pointer-jumping round D[w] <- D[D[w]] on the jumper's
// copy and gatherer.
func (j *jumper) jump(c *forkjoin.Ctx, sp *mem.Space, d *mem.Array[uint64]) {
	n := d.Len()
	mem.CopyPar(c, j.dw, 0, d, 0, n)
	dd := j.gather(c, sp, d, j.dw)
	forkjoin.ParallelRange(c, 0, n, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for w := lo; w < hi; w++ {
			d.Set(c, w, dd.Get(c, w))
		}
	})
}

// ConnectedComponentsDirect is the insecure baseline: the same
// Awerbuch–Shiloach iteration with direct memory accesses and early
// termination.
func ConnectedComponentsDirect(c *forkjoin.Ctx, sp *mem.Space, n int, edges [][2]int) []int {
	if n == 0 {
		return nil
	}
	d := mem.Alloc[uint64](sp, n)
	for v := 0; v < n; v++ {
		d.Data()[v] = uint64(v)
	}
	star := make([]uint64, n)
	stars := func() {
		for w := 0; w < n; w++ {
			star[w] = 1
		}
		for w := 0; w < n; w++ {
			dv := d.Data()[w]
			dd := d.Data()[dv]
			if dd != dv {
				star[w] = 0
				star[dd] = 0
			}
		}
		for w := 0; w < n; w++ {
			star[w] = star[d.Data()[w]]
		}
	}
	// Hooking emulates arbitrary-CRCW writes; under the work-stealing pool
	// those would be real data races, so the edge loop serializes there
	// (the metered executor is sequential, so its measured span still
	// reflects the forked loop).
	hookLoop := func(body func(c *forkjoin.Ctx, e int)) {
		if c.ParallelMode() {
			for e := 0; e < len(edges); e++ {
				body(c, e)
			}
			return
		}
		forkjoin.ParallelFor(c, 0, len(edges), 0, body)
	}
	iters := 3*obliv.Log2Ceil(n) + 5
	for it := 0; it < iters; it++ {
		c.Check("graph.round")
		stars()
		hookLoop(func(c *forkjoin.Ctx, e int) {
			for dir := 0; dir < 2; dir++ {
				u, v := edges[e][0], edges[e][1]
				if dir == 1 {
					u, v = v, u
				}
				du := d.Get(c, u)
				dv := d.Get(c, v)
				c.Op(1)
				if star[u] == 1 && dv < du {
					d.Set(c, int(du), dv)
				}
			}
		})
		stars()
		hookLoop(func(c *forkjoin.Ctx, e int) {
			for dir := 0; dir < 2; dir++ {
				u, v := edges[e][0], edges[e][1]
				if dir == 1 {
					u, v = v, u
				}
				du := d.Get(c, u)
				dv := d.Get(c, v)
				c.Op(1)
				if star[u] == 1 && dv != du {
					d.Set(c, int(du), dv)
				}
			}
		})
		if c.ParallelMode() {
			for w := 0; w < n; w++ {
				d.Set(c, w, d.Get(c, int(d.Get(c, w))))
			}
		} else {
			forkjoin.ParallelRange(c, 0, n, 0, func(c *forkjoin.Ctx, lo, hi int) {
				for w := lo; w < hi; w++ {
					d.Set(c, w, d.Get(c, int(d.Get(c, w))))
				}
			})
		}
	}
	out := make([]int, n)
	for v := range out {
		out[v] = int(d.Data()[v])
	}
	return out
}

// ConnectedComponentsSeq is the union-find reference.
func ConnectedComponentsSeq(n int, edges [][2]int) []int {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		a, b := find(e[0]), find(e[1])
		if a != b {
			if a < b {
				parent[b] = a
			} else {
				parent[a] = b
			}
		}
	}
	out := make([]int, n)
	for v := range out {
		out[v] = find(v)
	}
	return out
}

// scatter fills the requests of w — request i writes val to cell addr,
// priority i, or nothing at an address at or beyond the memory — by req
// and resolves them into memory.
func scatter(c *forkjoin.Ctx, sp *mem.Space, w *pram.Scatterer, memory *mem.Array[uint64], req func(c *forkjoin.Ctx, i int) (addr, val uint64)) {
	addr, prio, val := w.Requests()
	forkjoin.ParallelRange(c, 0, addr.Len(), 0, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			a, v := req(c, i)
			addr.Set(c, i, a)
			prio.Set(c, i, uint64(i))
			val.Set(c, i, v)
		}
	})
	w.Resolve(c, sp, memory)
}
