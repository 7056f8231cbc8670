package graph

import (
	"sort"

	"oblivmc/internal/core"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/pram"
)

// WEdge is a weighted undirected edge.
type WEdge struct {
	U, V int
	W    uint64
}

// Field widths for the packed min-edge selection keys: components and edge
// ids below 2^21, weights below 2^20.
const (
	msfIDBits = 21
	msfWBits  = 20
)

// MinimumSpanningForestOblivious computes the minimum spanning forest by
// Borůvka star-hooking realized with oblivious bulk operations: each
// iteration finds every star component's minimum incident cross edge (one
// oblivious sort + propagation over the 2m directed edges), hooks star
// roots along those edges (pseudo-forest with only 2-cycles, broken
// deterministically — weights are made distinct by edge-id tie-breaking),
// and pointer-jumps once. Returns the indices of the chosen edges.
//
// Deviation from Table 1 (README, "Deviations from the paper", 4): the paper
// reaches O(log n) bulk steps via the randomized PR02 machine; Borůvka
// star-hooking needs O(log² n) in the worst case, and the iteration count
// (until no live cross edge remains) is revealed. Requirements: n, m <
// 2^21, weights < 2^20.
func MinimumSpanningForestOblivious(c *forkjoin.Ctx, sp *mem.Space, n int, edges []WEdge, p core.Params) []int {
	m := len(edges)
	if n == 0 || m == 0 {
		return nil
	}
	if n >= 1<<msfIDBits || m >= 1<<msfIDBits {
		panic("graph: MSF graph too large for packed keys")
	}
	p = p.Normalized(n + m)
	srt := p.Sorter
	m2 := 2 * m

	d := mem.Alloc[uint64](sp, n)
	for v := 0; v < n; v++ {
		d.Data()[v] = uint64(v)
	}
	chosen := mem.Alloc[uint64](sp, m)
	star := mem.Alloc[uint64](sp, n)

	us := mem.Alloc[uint64](sp, m2)
	vs := mem.Alloc[uint64](sp, m2)
	ws := mem.Alloc[uint64](sp, m2)
	ids := mem.Alloc[uint64](sp, m2)
	forkjoin.ParallelRange(c, 0, m, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for e := lo; e < hi; e++ {
			us.Set(c, 2*e, uint64(edges[e].U))
			vs.Set(c, 2*e, uint64(edges[e].V))
			us.Set(c, 2*e+1, uint64(edges[e].V))
			vs.Set(c, 2*e+1, uint64(edges[e].U))
			// Distinct effective weights via edge-id tie-break.
			wTie := edges[e].W<<msfIDBits | uint64(e)
			ws.Set(c, 2*e, wTie)
			ws.Set(c, 2*e+1, wTie)
			ids.Set(c, 2*e, uint64(e))
			ids.Set(c, 2*e+1, uint64(e))
		}
	})

	// One router serves every send-receive of the run: n + NextPow2(2m)
	// slots for the endpoint and star gathers and the hook scatter,
	// NextPow2(2m) + m for the chosen-edge scatter, n + NextPow2(n) for the
	// 2-cycle gather and the jump.
	nsel := obliv.NextPow2(m2)
	route := obliv.NewRouter(sp, max(n, m), max(nsel, obliv.NextPow2(n)))
	// The endpoint requests are static: record their sorts once.
	gu := pram.NewGatherer(c, sp, n, us, srt, route)
	gv := pram.NewGatherer(c, sp, n, vs, srt, route)
	// The per-iteration gathers and scatters keep one shape each, so their
	// work space is allocated once too.
	stars := reader{srt: srt, route: route}
	jumps := newJumper(sp, n, srt, route)
	hooks := pram.NewScatterer(sp, n, nsel, srt, route)
	picks := pram.NewScatterer(sp, m, nsel, srt, route)

	maxIters := (obliv.Log2Ceil(n) + 2) * (obliv.Log2Ceil(n) + 2)
	sel := mem.Alloc[obliv.Elem](sp, nsel)
	for it := 0; it < maxIters; it++ {
		// Borůvka round boundaries: the iteration count is revealed by the
		// convergence check (see doc), so a cancellation here leaks nothing
		// beyond the round index.
		c.Check("graph.round")
		cu := gu.Values(c, sp, d)
		cv := gv.Values(c, sp, d)

		// Live cross edges and convergence check (count revealed; see doc).
		live := mem.Alloc[uint64](sp, m2)
		forkjoin.ParallelRange(c, 0, m2, 0, func(c *forkjoin.Ctx, lo, hi int) {
			for e := lo; e < hi; e++ {
				l := uint64(0)
				c.Op(1)
				if cu.Get(c, e) != cv.Get(c, e) {
					l = 1
				}
				live.Set(c, e, l)
			}
		})
		if obliv.SumU64(c, sp, live) == 0 {
			break
		}

		computeStars(c, sp, d, star, srt)

		// Min cross edge per component label: sort (label, weight) and
		// propagate the minimum's (other endpoint, edge id) to the group.
		forkjoin.ParallelRange(c, 0, m2, 0, func(c *forkjoin.Ctx, lo, hi int) {
			for e := lo; e < hi; e++ {
				cuv := cu.Get(c, e)
				cvv := cv.Get(c, e)
				wv := ws.Get(c, e)
				id := ids.Get(c, e)
				el := obliv.Elem{Kind: obliv.Filler}
				c.Op(1)
				if cuv != cvv {
					// wv already packs (weight, edge id) in WBits+IDBits
					// bits; prefixing the component label keeps the whole
					// key below 2^62.
					el = obliv.Elem{
						Key:  cuv<<(msfWBits+msfIDBits) | wv,
						Val:  cvv<<msfIDBits | id,
						Aux:  cuv,
						Kind: obliv.Real,
					}
				}
				sel.Set(c, e, el)
			}
		})
		// Clear the pow2 padding tail.
		forkjoin.ParallelRange(c, m2, sel.Len(), 0, func(c *forkjoin.Ctx, lo, hi int) {
			for e := lo; e < hi; e++ {
				sel.Set(c, e, obliv.Elem{Kind: obliv.Filler})
			}
		})
		selKey := func(e obliv.Elem) uint64 {
			if e.Kind != obliv.Real {
				return obliv.InfKey
			}
			return e.Key
		}
		obliv.SortKeyed(c, sp, sel, sel.Len(), selKey, srt)
		groupOf := func(e obliv.Elem) uint64 {
			if e.Kind != obliv.Real {
				return obliv.InfKey
			}
			return e.Aux // component label
		}
		obliv.PropagateFirst(c, sp, sel, groupOf,
			func(e obliv.Elem, i int) (uint64, bool) { return e.Val, e.Kind == obliv.Real },
			func(e obliv.Elem, i int, v uint64, ok bool) obliv.Elem {
				if e.Kind == obliv.Real && ok {
					e.Val = v
				}
				return e
			})

		// Hook star roots along their min edge; mark chosen edges.
		sRoot := mem.Alloc[uint64](sp, sel.Len())
		forkjoin.ParallelRange(c, 0, sel.Len(), 0, func(c *forkjoin.Ctx, lo, hi int) {
			for e := lo; e < hi; e++ {
				el := sel.Get(c, e)
				a := el.Aux
				c.Op(1)
				if el.Kind != obliv.Real {
					a = uint64(n) + uint64(e) // ⊥ query
				}
				sRoot.Set(c, e, a)
			}
		})
		starOf := stars.gather(c, sp, star, sRoot) // ⊥ (a non-Real sel) reads 0
		// A star root hooks along its min edge, with its position as
		// priority, and marks the edge chosen; every other entry requests
		// InfKey, which writes nothing.
		hAddr, hPrio, hVal := hooks.Requests()
		pAddr, pPrio, pVal := picks.Requests()
		forkjoin.ParallelRange(c, 0, sel.Len(), 0, func(c *forkjoin.Ctx, lo, hi int) {
			for e := lo; e < hi; e++ {
				el := sel.Get(c, e)
				st := starOf.Get(c, e)
				ha, pa := obliv.InfKey, obliv.InfKey
				c.Op(1)
				if el.Kind == obliv.Real && st == 1 {
					ha, pa = el.Aux, el.Val&(1<<msfIDBits-1)
				}
				hAddr.Set(c, e, ha)
				hPrio.Set(c, e, uint64(e))
				hVal.Set(c, e, el.Val>>msfIDBits) // the other endpoint's label
				pAddr.Set(c, e, pa)
				pPrio.Set(c, e, uint64(e))
				pVal.Set(c, e, 1)
			}
		})
		hooks.Resolve(c, sp, d)
		picks.Resolve(c, sp, chosen)

		// Break 2-cycles: if D[D[r]] == r keep the smaller id as root.
		dw := jumps.dw
		mem.CopyPar(c, dw, 0, d, 0, n)
		dd := jumps.gather(c, sp, d, dw)
		forkjoin.ParallelRange(c, 0, n, 0, func(c *forkjoin.Ctx, lo, hi int) {
			for w := lo; w < hi; w++ {
				dv := dw.Get(c, w)
				ddv := dd.Get(c, w)
				nv := dv
				c.Op(1)
				if ddv == uint64(w) && uint64(w) < dv {
					nv = uint64(w)
				}
				d.Set(c, w, nv)
			}
		})

		jumps.jump(c, sp, d)
	}

	var out []int
	for e := 0; e < m; e++ {
		if chosen.Data()[e] == 1 {
			out = append(out, e)
		}
	}
	return out
}

// MinimumSpanningForestDirect is the insecure baseline: the same Borůvka
// star-hooking with direct accesses (write phases serialized under the
// work-stealing pool; see ConnectedComponentsDirect).
func MinimumSpanningForestDirect(c *forkjoin.Ctx, sp *mem.Space, n int, edges []WEdge) []int {
	m := len(edges)
	if n == 0 || m == 0 {
		return nil
	}
	d := make([]uint64, n)
	for v := range d {
		d[v] = uint64(v)
	}
	chosen := make([]bool, m)
	star := make([]bool, n)
	stars := func() {
		for w := 0; w < n; w++ {
			star[w] = true
		}
		for w := 0; w < n; w++ {
			if d[d[w]] != d[w] {
				star[w] = false
				star[d[d[w]]] = false
			}
		}
		for w := 0; w < n; w++ {
			star[w] = star[d[w]]
		}
	}
	wTie := func(e int) uint64 { return edges[e].W<<msfIDBits | uint64(e) }
	maxIters := (obliv.Log2Ceil(n) + 2) * (obliv.Log2Ceil(n) + 2)
	minEdge := make([]int, n)
	for it := 0; it < maxIters; it++ {
		c.Check("graph.round")
		c.Op(int64(n + 2*m))
		live := false
		for e := range edges {
			if d[edges[e].U] != d[edges[e].V] {
				live = true
				break
			}
		}
		if !live {
			break
		}
		stars()
		for v := range minEdge {
			minEdge[v] = -1
		}
		for e := range edges {
			cu, cv := d[edges[e].U], d[edges[e].V]
			if cu == cv {
				continue
			}
			for _, root := range []uint64{cu, cv} {
				r := int(root)
				if minEdge[r] < 0 || wTie(e) < wTie(minEdge[r]) {
					minEdge[r] = e
				}
			}
		}
		for r := 0; r < n; r++ {
			if d[r] != uint64(r) || !star[r] || minEdge[r] < 0 {
				continue
			}
			e := minEdge[r]
			cu, cv := d[edges[e].U], d[edges[e].V]
			other := cv
			if cv == uint64(r) {
				other = cu
			}
			d[r] = other
			chosen[e] = true
		}
		for w := 0; w < n; w++ {
			if d[d[w]] == uint64(w) && uint64(w) < d[w] {
				d[w] = uint64(w)
			}
		}
		for w := 0; w < n; w++ {
			d[w] = d[d[w]]
		}
	}
	var out []int
	for e, ch := range chosen {
		if ch {
			out = append(out, e)
		}
	}
	return out
}

// MinimumSpanningForestSeq is the Kruskal reference with the same
// edge-id tie-break, so the chosen edge set is directly comparable.
func MinimumSpanningForestSeq(n int, edges []WEdge) []int {
	idx := make([]int, len(edges))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		wa := edges[idx[a]].W<<msfIDBits | uint64(idx[a])
		wb := edges[idx[b]].W<<msfIDBits | uint64(idx[b])
		return wa < wb
	})
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
	var out []int
	for _, e := range idx {
		a, b := find(edges[e].U), find(edges[e].V)
		if a != b {
			parent[a] = b
			out = append(out, e)
		}
	}
	sort.Ints(out)
	return out
}
