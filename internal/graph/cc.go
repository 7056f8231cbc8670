package graph

import (
	"oblivmc/internal/core"
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
// Returns a label per vertex; two vertices share a label iff connected.
func ConnectedComponentsOblivious(c *forkjoin.Ctx, sp *mem.Space, n int, edges [][2]int, p core.Params) []int {
	if n == 0 {
		return nil
	}
	p = p.Normalized(n + len(edges))
	srt := p.Sorter
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

	iters := 3*obliv.Log2Ceil(n) + 5
	star := mem.Alloc[uint64](sp, n)
	for it := 0; it < iters; it++ {
		// Round boundaries are a function of n alone (fixed iteration
		// bound), so a cancellation here reveals only the round index.
		c.Check("graph.round")
		// Conditional hooking: if star(u) and D[v] < D[u], D[D[u]] <- D[v].
		computeStars(c, sp, d, star, srt)
		hook(c, sp, d, star, us, vs, m2, false, srt)
		// Unconditional hooking for stagnant stars: if star(u) and
		// D[v] != D[u], hook regardless.
		computeStars(c, sp, d, star, srt)
		hook(c, sp, d, star, us, vs, m2, true, srt)
		// Pointer jumping: D[w] <- D[D[w]].
		jumpOnce(c, sp, d, srt)
	}

	out := make([]int, n)
	for v := range out {
		out[v] = int(d.Data()[v])
	}
	return out
}

// computeStars fills star[w] ∈ {0,1}: star(w) iff w's tree in the D forest
// is a star (everything points directly at the root).
func computeStars(c *forkjoin.Ctx, sp *mem.Space, d, star *mem.Array[uint64], srt obliv.ScheduledSorter) {
	n := d.Len()
	dw := mem.Alloc[uint64](sp, n)
	mem.CopyPar(c, dw, 0, d, 0, n)
	dd := gather(c, sp, d, dw, srt) // D[D[w]]

	mem.Fill(c, star, 1)
	// If D[w] != D[D[w]]: star[w] = 0 and star[D[D[w]]] = 0.
	reqs := mem.Alloc[obliv.Elem](sp, n)
	forkjoin.ParallelRange(c, 0, n, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for w := lo; w < hi; w++ {
			dv := dw.Get(c, w)
			ddv := dd.Get(c, w)
			r := obliv.Elem{Kind: obliv.Filler, Aux: uint64(w)}
			z := star.Get(c, w)
			c.Op(1)
			if ddv != dv {
				z = 0
				r = obliv.Elem{Key: ddv, Val: 0, Aux: uint64(w), Kind: obliv.Real}
			}
			star.Set(c, w, z)
			reqs.Set(c, w, r)
		}
	})
	pram.ScatterResolve(c, sp, star, reqs, srt)
	// star[w] = star[w] ∧ star[D[w]]: a vertex cleared above stays cleared
	// even when its parent (a child of the root) was not.
	sOfD := gather(c, sp, star, dw, srt)
	forkjoin.ParallelRange(c, 0, n, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for w := lo; w < hi; w++ {
			star.Set(c, w, star.Get(c, w)&sOfD.Get(c, w))
		}
	})
}

// hook issues the (un)conditional star-hooking writes of one AS step.
func hook(c *forkjoin.Ctx, sp *mem.Space, d, star, us, vs *mem.Array[uint64], m2 int, unconditional bool, srt obliv.ScheduledSorter) {
	if m2 == 0 {
		return
	}
	du := gather(c, sp, d, us, srt)
	dv := gather(c, sp, d, vs, srt)
	su := gather(c, sp, star, us, srt)
	reqs := mem.Alloc[obliv.Elem](sp, m2)
	forkjoin.ParallelRange(c, 0, m2, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for e := lo; e < hi; e++ {
			duv := du.Get(c, e)
			dvv := dv.Get(c, e)
			isStar := su.Get(c, e) == 1
			cond := dvv < duv
			if unconditional {
				cond = dvv != duv
			}
			r := obliv.Elem{Kind: obliv.Filler, Aux: uint64(e)}
			c.Op(1)
			if isStar && cond {
				r = obliv.Elem{Key: duv, Val: dvv, Aux: uint64(e), Kind: obliv.Real}
			}
			reqs.Set(c, e, r)
		}
	})
	pram.ScatterResolve(c, sp, d, reqs, srt)
}

// jumpOnce applies one pointer-jumping round D[w] <- D[D[w]] on a fresh
// jumper.
func jumpOnce(c *forkjoin.Ctx, sp *mem.Space, d *mem.Array[uint64], srt obliv.ScheduledSorter) {
	newJumper(sp, d.Len(), srt, nil).jump(c, sp, d)
}

// reader gathers from memories of one size at changing address lists of
// one length through one gatherer, re-sorted onto each list
// (pram.Gatherer.Readdress), so a gather after the first allocates no work
// array.
type reader struct {
	srt   obliv.ScheduledSorter
	route *obliv.Router  // nil: the gatherer's own
	g     *pram.Gatherer // built by the first gather
}

// gather is the graph layer's gather on the reader's gatherer: memory at
// addrs, the values alone in request order.
func (r *reader) gather(c *forkjoin.Ctx, sp *mem.Space, memory, addrs *mem.Array[uint64]) *mem.Array[uint64] {
	if r.g == nil {
		r.g = pram.NewGatherer(c, sp, memory.Len(), addrs, r.srt, r.route)
	} else {
		r.g.Readdress(c, sp, addrs)
	}
	return r.g.Values(c, sp, memory)
}

// jumper is pointer jumping over one n-cell D for a whole run: a reader of
// n cells at n addresses and the copy of D that addresses a jump. Its
// gather serves any other such read in between (MSF's 2-cycle check).
type jumper struct {
	reader
	dw *mem.Array[uint64]
}

// newJumper allocates a jumper over n cells whose gathers route on route
// (nil: the gatherer's own).
func newJumper(sp *mem.Space, n int, srt obliv.ScheduledSorter, route *obliv.Router) *jumper {
	return &jumper{reader: reader{srt: srt, route: route}, dw: mem.Alloc[uint64](sp, n)}
}

// jump is jumpOnce on the jumper's copy and gatherer.
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

// gather obliviously reads memory at addrs through a fresh pram.Gatherer
// and returns the values alone, in request order (0 for an out-of-range
// address): the graph kernels read nothing else, so they skip
// pram.Gather's Elem wrapping.
func gather(c *forkjoin.Ctx, sp *mem.Space, memory, addrs *mem.Array[uint64], srt obliv.ScheduledSorter) *mem.Array[uint64] {
	return pram.NewGatherer(c, sp, memory.Len(), addrs, srt, nil).Values(c, sp, memory)
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
