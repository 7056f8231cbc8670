package graph

import (
	"sort"

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

// Field widths of the packed selection words: components and edge ids
// below 2^21 (weights below 2^20 keep a weight and an edge id within 41
// bits).
const (
	msfIDBits = 21
	msfIDMask = 1<<msfIDBits - 1
)

// MinimumSpanningForestOblivious computes the minimum spanning forest by
// Borůvka star-hooking realized with oblivious bulk operations: each
// iteration finds every component's minimum incident cross edge by one
// priority-CRCW write of the 2m directed edges (pram.Scatterer, the edge
// weight as priority), hooks star roots along those edges (pseudo-forest
// with only 2-cycles, broken deterministically — weights are made distinct
// by edge-id tie-breaking), and pointer-jumps once. Returns the indices of
// the chosen edges.
//
// The run allocates its PRAM work space once, so its allocation does not
// depend on the revealed iteration count: gatherers on the static endpoint
// lists, recorded before the first iteration and only replayed after, the
// request planes of the three scatters (star test, selection, picks), one
// jumper for the star test, the 2-cycle check and the jump, and one router
// all of them share. An iteration sorts 6 times and replays 6.
//
// Deviation from Table 1 (README, "Deviations from the paper", 4): the paper
// reaches O(log n) bulk steps via the randomized PR02 machine; Borůvka
// star-hooking needs O(log² n) in the worst case, and the iteration count
// (until no live cross edge remains) is revealed. Requirements: n, m <
// 2^21, weights < 2^20.
func MinimumSpanningForestOblivious(c *forkjoin.Ctx, sp *mem.Space, n int, edges []WEdge) []int {
	m := len(edges)
	if n == 0 || m == 0 {
		return nil
	}
	if n >= 1<<msfIDBits || m >= 1<<msfIDBits {
		panic("graph: MSF graph too large for packed keys")
	}
	m2 := 2 * m

	d := mem.Alloc[uint64](sp, n)
	for v := 0; v < n; v++ {
		d.Data()[v] = uint64(v)
	}
	chosen := mem.Alloc[uint64](sp, m)
	star := mem.Alloc[uint64](sp, n)
	best := mem.Alloc[uint64](sp, n) // InfKey between iterations
	mem.Fill(c, best, obliv.InfKey)
	live := mem.Alloc[uint64](sp, m2)
	liveSum := mem.Alloc[uint64](sp, 2*m2-1)

	us := mem.Alloc[uint64](sp, m2)
	vs := mem.Alloc[uint64](sp, m2)
	ws := mem.Alloc[uint64](sp, m2)
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
		}
	})

	// One router serves every send-receive of the run: n + NextPow2(2m)
	// slots for the endpoint gathers and the selection (2m requests into n
	// cells), n + m for the picks (n requests into m cells), n +
	// NextPow2(n) for the star test and the jumps.
	route := obliv.NewRouter(sp, max(n, m), max(obliv.NextPow2(m2), obliv.NextPow2(n)))
	gu := pram.NewGatherer(c, sp, n, us, route)
	gv := pram.NewGatherer(c, sp, n, vs, route)
	jumps := newJumper(sp, n, route)
	clear := pram.NewScatterer(sp, n, n, route)
	sel := pram.NewScatterer(sp, n, m2, route)
	picks := pram.NewScatterer(sp, m, n, route)

	maxIters := (obliv.Log2Ceil(n) + 2) * (obliv.Log2Ceil(n) + 2)
	for it := 0; it < maxIters; it++ {
		// Borůvka round boundaries: the iteration count is revealed by the
		// convergence check (see doc), so a cancellation here leaks nothing
		// beyond the round index.
		c.Check("graph.round")
		cu := gu.Values(c, sp, d)
		cv := gv.Values(c, sp, d)

		// Min cross edge per component label, a priority-CRCW write: a
		// directed cross edge writes (head label, edge id) to the cell of
		// its tail label, its distinct weight the priority; an edge inside
		// one component requests InfKey, which writes nothing. The same
		// pass marks the live cross edges for the convergence check (count
		// revealed; see doc).
		addr, prio, val := sel.Requests()
		forkjoin.ParallelRange(c, 0, m2, 0, func(c *forkjoin.Ctx, lo, hi int) {
			for e := lo; e < hi; e++ {
				cuv := cu.Get(c, e)
				cvv := cv.Get(c, e)
				wv := ws.Get(c, e)
				a, l := obliv.InfKey, uint64(0)
				c.Op(1)
				if cuv != cvv {
					a, l = cuv, 1
				}
				live.Set(c, e, l)
				addr.Set(c, e, a)
				prio.Set(c, e, wv)
				val.Set(c, e, cvv<<msfIDBits|wv&msfIDMask)
			}
		})
		if obliv.SumU64With(c, live, liveSum) == 0 {
			break
		}

		computeStars(c, sp, jumps, clear, d, star)
		sel.Resolve(c, sp, best)

		// A star root hooks along its min edge and marks the edge chosen
		// (a star's members all carry its root's label, so best names no
		// other vertex of a star); best is reset for the next iteration.
		pAddr, pPrio, pVal := picks.Requests()
		forkjoin.ParallelRange(c, 0, n, 0, func(c *forkjoin.Ctx, lo, hi int) {
			for r := lo; r < hi; r++ {
				b := best.Get(c, r)
				st := star.Get(c, r)
				dr := d.Get(c, r)
				pa := obliv.InfKey
				c.Op(1)
				if st == 1 && b != obliv.InfKey {
					dr, pa = b>>msfIDBits, b&msfIDMask
				}
				d.Set(c, r, dr)
				best.Set(c, r, obliv.InfKey)
				pAddr.Set(c, r, pa)
				pPrio.Set(c, r, uint64(r))
				pVal.Set(c, r, 1)
			}
		})
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
