package graph

import (
	"oblivmc/internal/core"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/pram"
	"oblivmc/internal/spms"
)

// Arc indexing: an undirected tree on n vertices is given as n-1 edges;
// edge e yields arc 2e = (U[e], V[e]) and arc 2e+1 = (V[e], U[e]). The
// reversal of arc a is a^1.

// vertexBits bounds vertex ids for the packed (u,v) arc keys.
const vertexBits = 30

func arcKey(u, v uint64) uint64 { return u<<vertexBits | v }

// EulerTourOblivious computes the Euler tour successor τ of every arc
// (§5.2), rooted at root: the returned slice maps arc index to successor
// arc index, with the tour's final arc mapping to 2(n-1) (the end
// sentinel). The steps — reverse arcs, oblivious sort by first endpoint,
// neighbor inspection plus oblivious propagation for the circular
// adjacency successor, and one oblivious send-receive for
// τ(u,v) = Adjsucc(v,u) — are all within the sorting bound.
func EulerTourOblivious(c *forkjoin.Ctx, sp *mem.Space, n int, edges [][2]int, root int, seed uint64, p core.Params) []int {
	m := 2 * len(edges)
	if m == 0 {
		return nil
	}
	if n >= 1<<vertexBits {
		panic("graph: too many vertices for packed arc keys")
	}
	p = p.Normalized(m)

	// Build arcs: Key = packed (u,v), Val = own arc index.
	arcs := mem.Alloc[obliv.Elem](sp, obliv.NextPow2(m))
	forkjoin.ParallelRange(c, 0, len(edges), 0, func(c *forkjoin.Ctx, lo, hi int) {
		for e := lo; e < hi; e++ {
			u, v := uint64(edges[e][0]), uint64(edges[e][1])
			arcs.Set(c, 2*e, obliv.Elem{Key: arcKey(u, v), Val: uint64(2 * e), Kind: obliv.Real})
			arcs.Set(c, 2*e+1, obliv.Elem{Key: arcKey(v, u), Val: uint64(2*e + 1), Kind: obliv.Real})
		}
	})

	// Oblivious sort by (u, v): each vertex's arcs become consecutive.
	keyFn := func(e obliv.Elem) uint64 {
		if e.Kind != obliv.Real {
			return obliv.InfKey
		}
		return e.Key
	}
	obliv.SortKeyed(c, sp, arcs, arcs.Len(), keyFn, p.Sorter)

	// Adjacency successor: each arc's successor in the circular list
	// Adj(u) is its right neighbor if that shares u; the last arc of the
	// group learns the group's first arc via oblivious propagation.
	uOf := func(e obliv.Elem) uint64 {
		if e.Kind != obliv.Real {
			return obliv.InfKey
		}
		return e.Key >> vertexBits
	}
	// Pass 1: Aux <- right neighbor's arc index, or sentinel if the group
	// ends here.
	forkjoin.ParallelRange(c, 0, m, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := arcs.Get(c, i)
			nxt := uint64(m) // sentinel: group ends
			if i+1 < m {
				r := arcs.Get(c, i+1)
				c.Op(1)
				if uOf(r) == uOf(e) {
					nxt = r.Val
				}
			} else {
				c.Op(1)
			}
			e.Aux = nxt
			arcs.Set(c, i, e)
		}
	})
	// Pass 2: propagate the group's first arc index to close the circle.
	obliv.PropagateFirst(c, sp, arcs, uOf,
		func(e obliv.Elem, i int) (uint64, bool) { return e.Val, e.Kind == obliv.Real },
		func(e obliv.Elem, i int, v uint64, ok bool) obliv.Elem {
			c.Op(1)
			if e.Kind == obliv.Real && e.Aux == uint64(m) && ok {
				e.Aux = v
			}
			return e
		})

	// Identify e0 = first arc of Adj(root) (the tour start): exactly one
	// sorted arc is its group's first with u == root; sum (Val+1) over the
	// matching positions.
	marks := mem.Alloc[uint64](sp, m)
	forkjoin.ParallelRange(c, 0, m, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := arcs.Get(c, i)
			first := i == 0
			if i > 0 {
				prev := arcs.Get(c, i-1)
				c.Op(1)
				first = uOf(prev) != uOf(e)
			}
			v := uint64(0)
			if first && uOf(e) == uint64(root) {
				v = e.Val + 1
			}
			marks.Set(c, i, v)
		}
	})
	e0 := obliv.SumU64(c, sp, marks.View(0, m)) - 1

	// τ(u,v) = Adjsucc(v,u): each arc requests its reversal's Aux.
	sources := mem.Alloc[obliv.Elem](sp, m)
	dests := mem.Alloc[obliv.Elem](sp, m)
	forkjoin.ParallelRange(c, 0, m, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := arcs.Get(c, i)
			sources.Set(c, i, obliv.Elem{Key: e.Key, Val: e.Aux, Kind: obliv.Real})
			u, v := e.Key>>vertexBits, e.Key&((1<<vertexBits)-1)
			dests.Set(c, i, obliv.Elem{Key: arcKey(v, u), Aux: e.Val, Kind: obliv.Real})
		}
	})
	routed := obliv.SendReceive(c, sp, sources, dests, p.Sorter)

	// routed[i] parallels dests: the arc with original index
	// dests[i].Aux has τ = routed[i].Val; break the cycle at τ == e0.
	// Scatter τ values into original arc order obliviously.
	tau := mem.Alloc[uint64](sp, m)
	reqs := mem.Alloc[obliv.Elem](sp, m)
	forkjoin.ParallelRange(c, 0, m, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			r := routed.Get(c, i)
			d := dests.Get(c, i)
			t := r.Val
			c.Op(1)
			if t == e0 {
				t = uint64(m) // end of tour
			}
			reqs.Set(c, i, obliv.Elem{Key: d.Aux, Val: t, Aux: uint64(i), Kind: obliv.Real})
		}
	})
	pram.ScatterResolve(c, sp, tau, reqs, p.Sorter)

	out := make([]int, m)
	for i := range out {
		out[i] = int(tau.Data()[i])
	}
	return out
}

// TreeFuncs carries the per-vertex results of the Euler-tour based tree
// computations of §5.2.
type TreeFuncs struct {
	Parent      []int    // Parent[root] = root
	Depth       []uint64 // Depth[root] = 0
	Preorder    []uint64 // 0-based; Preorder[root] = 0
	Postorder   []uint64 // 0-based; Postorder[root] = n-1
	SubtreeSize []uint64 // SubtreeSize[root] = n
}

// TreeFunctionsOblivious roots the tree at root and computes parent,
// depth, preorder and postorder numbers, and subtree sizes, by an
// oblivious Euler tour followed by oblivious (weighted) list rankings on
// the tour — the §5.2 recipe; performance is dominated by list ranking.
func TreeFunctionsOblivious(c *forkjoin.Ctx, sp *mem.Space, n int, edges [][2]int, root int, seed uint64, p core.Params) TreeFuncs {
	m := 2 * len(edges)
	tf := TreeFuncs{
		Parent:      make([]int, n),
		Depth:       make([]uint64, n),
		Preorder:    make([]uint64, n),
		Postorder:   make([]uint64, n),
		SubtreeSize: make([]uint64, n),
	}
	if n == 1 {
		tf.Parent[root] = root
		tf.Postorder[root] = 0
		tf.SubtreeSize[root] = 1
		return tf
	}
	p = p.Normalized(m)
	tau := EulerTourOblivious(c, sp, n, edges, root, seed, p)

	// Tour positions via unweighted list ranking over arcs: the end arc
	// maps to itself (tail convention of ListRankOblivious).
	succ := make([]int, m)
	for a := 0; a < m; a++ {
		if tau[a] == m {
			succ[a] = a
		} else {
			succ[a] = tau[a]
		}
	}
	rankAfter := ListRankOblivious(c, sp, succ, nil, seed+1, p)
	pos := make([]uint64, m)
	for a := 0; a < m; a++ {
		pos[a] = uint64(m-1) - rankAfter[a]
	}

	// Forward arc = traversed before its reversal (static pairing a^1).
	forward := make([]bool, m)
	for a := 0; a < m; a++ {
		forward[a] = pos[a] < pos[a^1]
	}

	// Weighted rankings: forward-arc count and backward-arc count.
	wF := make([]uint64, m)
	wB := make([]uint64, m)
	var totF, totB uint64
	for a := 0; a < m; a++ {
		if forward[a] {
			wF[a] = 1
			totF++
		} else {
			wB[a] = 1
			totB++
		}
	}
	rankF := ListRankOblivious(c, sp, succ, wF, seed+2, p)
	rankB := ListRankOblivious(c, sp, succ, wB, seed+3, p)

	// Per-arc inclusive prefix counts: F(a) = totF - rankF(a) counts
	// forward arcs up to and including a (when a is forward), etc.
	// Scatter vertex values obliviously from arcs.
	parentArr := mem.Alloc[uint64](sp, n)
	depthArr := mem.Alloc[uint64](sp, n)
	preArr := mem.Alloc[uint64](sp, n)
	postArr := mem.Alloc[uint64](sp, n)
	sizeArr := mem.Alloc[uint64](sp, n)

	edgeOf := func(a int) (uint64, uint64) {
		e := edges[a/2]
		u, v := uint64(e[0]), uint64(e[1])
		if a%2 == 1 {
			u, v = v, u
		}
		return u, v
	}

	reqP := mem.Alloc[obliv.Elem](sp, m)
	reqD := mem.Alloc[obliv.Elem](sp, m)
	reqPre := mem.Alloc[obliv.Elem](sp, m)
	reqPost := mem.Alloc[obliv.Elem](sp, m)
	reqSize := mem.Alloc[obliv.Elem](sp, m)
	forkjoin.ParallelRange(c, 0, m, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for a := lo; a < hi; a++ {
			u, v := edgeOf(a)
			c.Op(4)
			if forward[a] {
				fIncl := totF - rankF[a]
				bIncl := totB - rankB[a]
				sub := (pos[a^1] - pos[a] + 1) / 2
				reqP.Set(c, a, obliv.Elem{Key: v, Val: u, Aux: uint64(a), Kind: obliv.Real})
				reqD.Set(c, a, obliv.Elem{Key: v, Val: fIncl - bIncl, Aux: uint64(a), Kind: obliv.Real})
				reqPre.Set(c, a, obliv.Elem{Key: v, Val: fIncl, Aux: uint64(a), Kind: obliv.Real})
				reqSize.Set(c, a, obliv.Elem{Key: v, Val: sub, Aux: uint64(a), Kind: obliv.Real})
				reqPost.Set(c, a, obliv.Elem{Kind: obliv.Filler})
			} else {
				bIncl := totB - rankB[a]
				reqP.Set(c, a, obliv.Elem{Kind: obliv.Filler})
				reqD.Set(c, a, obliv.Elem{Kind: obliv.Filler})
				reqPre.Set(c, a, obliv.Elem{Kind: obliv.Filler})
				reqSize.Set(c, a, obliv.Elem{Kind: obliv.Filler})
				reqPost.Set(c, a, obliv.Elem{Key: u, Val: bIncl - 1, Aux: uint64(a), Kind: obliv.Real})
			}
		}
	})
	pram.ScatterResolve(c, sp, parentArr, reqP, p.Sorter)
	pram.ScatterResolve(c, sp, depthArr, reqD, p.Sorter)
	pram.ScatterResolve(c, sp, preArr, reqPre, p.Sorter)
	pram.ScatterResolve(c, sp, postArr, reqPost, p.Sorter)
	pram.ScatterResolve(c, sp, sizeArr, reqSize, p.Sorter)

	for v := 0; v < n; v++ {
		tf.Parent[v] = int(parentArr.Data()[v])
		tf.Depth[v] = depthArr.Data()[v]
		tf.Preorder[v] = preArr.Data()[v]
		tf.Postorder[v] = postArr.Data()[v]
		tf.SubtreeSize[v] = sizeArr.Data()[v]
	}
	tf.Parent[root] = root
	tf.Depth[root] = 0
	tf.Preorder[root] = 0
	tf.Postorder[root] = uint64(n - 1)
	tf.SubtreeSize[root] = uint64(n)
	return tf
}

// EulerTourSeq is the sequential reference: it produces τ by simulating
// the circular-adjacency rule directly, rooted at root.
func EulerTourSeq(n int, edges [][2]int, root int) []int {
	m := 2 * len(edges)
	// Sorted adjacency: arcs grouped by first endpoint in (u,v) order.
	type arc struct{ u, v, idx int }
	arcs := make([]arc, m)
	for e, ed := range edges {
		arcs[2*e] = arc{ed[0], ed[1], 2 * e}
		arcs[2*e+1] = arc{ed[1], ed[0], 2*e + 1}
	}
	// Simple stable sort by (u, v).
	sorted := append([]arc(nil), arcs...)
	for i := 1; i < len(sorted); i++ {
		x := sorted[i]
		j := i - 1
		for j >= 0 && (sorted[j].u > x.u || (sorted[j].u == x.u && sorted[j].v > x.v)) {
			sorted[j+1] = sorted[j]
			j--
		}
		sorted[j+1] = x
	}
	adjSucc := make([]int, m) // by arc idx: successor in Adj(u)
	first := map[int]int{}    // u -> first arc idx in its group
	for i := 0; i < len(sorted); i++ {
		if _, ok := first[sorted[i].u]; !ok {
			first[sorted[i].u] = sorted[i].idx
		}
		if i+1 < len(sorted) && sorted[i+1].u == sorted[i].u {
			adjSucc[sorted[i].idx] = sorted[i+1].idx
		} else {
			adjSucc[sorted[i].idx] = first[sorted[i].u]
		}
	}
	tau := make([]int, m)
	e0 := first[root]
	for a := 0; a < m; a++ {
		t := adjSucc[a^1]
		if t == e0 {
			t = m
		}
		tau[a] = t
	}
	return tau
}

// TreeFunctionsSeq is the sequential reference for TreeFuncs: it walks the
// Euler tour produced by EulerTourSeq once and applies the §5.2 position
// formulas directly. (The test suite additionally validates both
// implementations against structure-only properties — BFS depths, subtree
// interval containment — so the shared formulas are independently checked.)
func TreeFunctionsSeq(n int, edges [][2]int, root int) TreeFuncs {
	m := 2 * len(edges)
	tf := TreeFuncs{
		Parent:      make([]int, n),
		Depth:       make([]uint64, n),
		Preorder:    make([]uint64, n),
		Postorder:   make([]uint64, n),
		SubtreeSize: make([]uint64, n),
	}
	tf.Parent[root] = root
	tf.SubtreeSize[root] = uint64(n)
	tf.Postorder[root] = uint64(n - 1)
	if n == 1 {
		tf.Postorder[root] = 0
		tf.SubtreeSize[root] = 1
		return tf
	}
	tau := EulerTourSeq(n, edges, root)
	// Tour start: the (u,v)-smallest arc out of root.
	e0, bestKey := -1, uint64(0)
	for e, ed := range edges {
		for k := 0; k < 2; k++ {
			a := 2*e + k
			u, v := uint64(ed[0]), uint64(ed[1])
			if k == 1 {
				u, v = v, u
			}
			if int(u) == root {
				key := arcKey(u, v)
				if e0 < 0 || key < bestKey {
					e0, bestKey = a, key
				}
			}
		}
	}
	pos := make([]uint64, m)
	var fIncl, bIncl uint64
	cur := e0
	for step := 0; step < m; step++ {
		pos[cur] = uint64(step)
		if tau[cur] == m {
			break
		}
		cur = tau[cur]
	}
	cur = e0
	for step := 0; step < m; step++ {
		a := cur
		u, v := edges[a/2][0], edges[a/2][1]
		if a%2 == 1 {
			u, v = v, u
		}
		if pos[a] < pos[a^1] { // forward
			fIncl++
			tf.Parent[v] = u
			tf.Depth[v] = fIncl - bIncl
			tf.Preorder[v] = fIncl
			tf.SubtreeSize[v] = (pos[a^1] - pos[a] + 1) / 2
		} else {
			bIncl++
			tf.Postorder[u] = bIncl - 1
		}
		if tau[cur] == m {
			break
		}
		cur = tau[cur]
	}
	return tf
}

// TreeFunctionsDirect is the insecure baseline for the §5.2 tree
// computations: the same Euler-tour pipeline with direct (data-dependent)
// memory accesses — an insecure comparison sort over the arcs, direct
// neighbor/successor links, direct weighted list rankings, and direct
// scatters. Work O(n log n), span O(log² n)-shaped.
func TreeFunctionsDirect(c *forkjoin.Ctx, sp *mem.Space, n int, edges [][2]int, root int, seed uint64) TreeFuncs {
	m := 2 * len(edges)
	tf := TreeFuncs{
		Parent:      make([]int, n),
		Depth:       make([]uint64, n),
		Preorder:    make([]uint64, n),
		Postorder:   make([]uint64, n),
		SubtreeSize: make([]uint64, n),
	}
	tf.Parent[root] = root
	tf.SubtreeSize[root] = uint64(n)
	tf.Postorder[root] = uint64(n - 1)
	if n == 1 {
		tf.Postorder[root] = 0
		tf.SubtreeSize[root] = 1
		return tf
	}

	// Sort arcs by (u, v) with the insecure sample sort.
	arcs := mem.Alloc[obliv.Elem](sp, m)
	forkjoin.ParallelRange(c, 0, len(edges), 0, func(c *forkjoin.Ctx, lo, hi int) {
		for e := lo; e < hi; e++ {
			u, v := uint64(edges[e][0]), uint64(edges[e][1])
			arcs.Set(c, 2*e, obliv.Elem{Key: arcKey(u, v), Val: uint64(2 * e), Kind: obliv.Real})
			arcs.Set(c, 2*e+1, obliv.Elem{Key: arcKey(v, u), Val: uint64(2*e + 1), Kind: obliv.Real})
		}
	})
	spms.SampleSort(c, sp, arcs, seed)

	// Adjacency successors with direct neighbor reads; first-of-group via
	// a backward sequential-free approach: record group firsts directly.
	adjSucc := mem.Alloc[uint64](sp, m) // by arc id
	firstOf := mem.Alloc[uint64](sp, n) // by vertex: first arc id in group
	forkjoin.ParallelRange(c, 0, m, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := arcs.Get(c, i)
			u := e.Key >> vertexBits
			if i == 0 || arcs.Get(c, i-1).Key>>vertexBits != u {
				firstOf.Set(c, int(u), e.Val)
			}
		}
	})
	forkjoin.ParallelRange(c, 0, m, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := arcs.Get(c, i)
			u := e.Key >> vertexBits
			if i+1 < m {
				r := arcs.Get(c, i+1)
				if r.Key>>vertexBits == u {
					adjSucc.Set(c, int(e.Val), r.Val)
					continue
				}
			}
			adjSucc.Set(c, int(e.Val), firstOf.Get(c, int(u)))
		}
	})

	// τ(u,v) = Adjsucc(v,u), reversal = arc id ^ 1; break at Adj(root)'s
	// first arc.
	e0 := int(firstOf.Data()[root])
	succ := make([]int, m)
	for a := 0; a < m; a++ {
		t := int(adjSucc.Data()[a^1])
		if t == e0 {
			t = a // tail convention
		}
		succ[a] = t
	}

	rankAfter := ListRankDirect(c, sp, succ, nil)
	pos := make([]uint64, m)
	for a := 0; a < m; a++ {
		pos[a] = uint64(m-1) - rankAfter[a]
	}
	forward := make([]bool, m)
	wF := make([]uint64, m)
	wB := make([]uint64, m)
	var totF, totB uint64
	for a := 0; a < m; a++ {
		forward[a] = pos[a] < pos[a^1]
		if forward[a] {
			wF[a] = 1
			totF++
		} else {
			wB[a] = 1
			totB++
		}
	}
	rankF := ListRankDirect(c, sp, succ, wF)
	rankB := ListRankDirect(c, sp, succ, wB)
	for a := 0; a < m; a++ {
		u, v := edges[a/2][0], edges[a/2][1]
		if a%2 == 1 {
			u, v = v, u
		}
		if forward[a] {
			fIncl := totF - rankF[a]
			bIncl := totB - rankB[a]
			tf.Parent[v] = u
			tf.Depth[v] = fIncl - bIncl
			tf.Preorder[v] = fIncl
			tf.SubtreeSize[v] = (pos[a^1] - pos[a] + 1) / 2
		} else {
			tf.Postorder[u] = totB - rankB[a] - 1
		}
	}
	tf.Parent[root] = root
	tf.Depth[root] = 0
	tf.Preorder[root] = 0
	tf.Postorder[root] = uint64(n - 1)
	tf.SubtreeSize[root] = uint64(n)
	return tf
}
