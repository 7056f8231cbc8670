package graph

import (
	"oblivmc/internal/bitonic"
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
// sentinel). It runs over word planes: one recorded sort of the packed
// (u,v) arc keys, the arc index carried, groups each vertex's arcs; a
// neighbour compare and one segmented scan on the sorted planes give every
// arc its successor in the circular adjacency list Adj(u); one un-sort
// replays the recorded sort backwards, taking each successor home to its
// arc; and τ(u,v) = Adjsucc(v,u) is then a read at the fixed address a^1.
// One sort and one un-sort of NextPow2(2(n-1)) words, within the sorting
// bound, on the bitonic network; the access pattern is a function of n
// alone.
func EulerTourOblivious(c *forkjoin.Ctx, sp *mem.Space, n int, edges [][2]int, root int) []int {
	m := 2 * len(edges)
	if m == 0 {
		return nil
	}
	if n >= 1<<vertexBits {
		panic("graph: too many vertices for packed arc keys")
	}

	// Sort planes: the packed (u,v) key and the arc index; the padding
	// keys InfKey and sorts last.
	w := obliv.NextPow2(m)
	ws, scr := obliv.AllocKeySchedule(sp, w, 2), obliv.AllocKeySchedule(sp, w, 2)
	keys, idx := ws.Plane(0), ws.Plane(1)
	forkjoin.ParallelRange(c, 0, w, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for a := lo; a < hi; a++ {
			key := obliv.InfKey
			if a < m {
				u, v := arcEnds(edges, a)
				key = arcKey(u, v)
			}
			keys.Set(c, a, key)
			idx.Set(c, a, uint64(a))
		}
	})
	rec := mem.Alloc[uint64](sp, bitonic.RecordWords(c, w, 0))
	bitonic.SortRecorded(c, ws, scr, 1, rec, w)

	// Each sorted arc carries its own index and whether it opens its
	// vertex's group; a segmented scan hands every arc its group's first
	// arc. The one arc that opens Adj(root) is the tour's start e0.
	first := mem.Alloc[groupFirst](sp, m)
	marks := mem.Alloc[uint64](sp, m)
	forkjoin.ParallelRange(c, 0, m, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			u, a := keys.Get(c, i)>>vertexBits, idx.Get(c, i)
			start := i == 0
			if i > 0 {
				prev := keys.Get(c, i-1)
				c.Op(1)
				start = prev>>vertexBits != u
			}
			first.Set(c, i, groupFirst{arc: a, start: start})
			mark := uint64(0)
			c.Op(1)
			if start && u == uint64(root) {
				mark = a + 1
			}
			marks.Set(c, i, mark)
		}
	})
	obliv.ScanOp(c, sp, first, firstOfGroup, groupFirst{}, true)
	e0 := obliv.SumU64(c, sp, marks) - 1

	// Adjsucc of a sorted arc: its right neighbour if that shares u, else
	// its group's first arc. The un-sort takes each home to its arc.
	adj, adjScr := obliv.AllocKeySchedule(sp, w, 1), obliv.AllocKeySchedule(sp, w, 1)
	succ := adj.Plane(0)
	forkjoin.ParallelRange(c, 0, m, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			s := first.Get(c, i).arc
			if i+1 < m {
				u, r := keys.Get(c, i)>>vertexBits, keys.Get(c, i+1)>>vertexBits
				next := idx.Get(c, i+1)
				c.Op(1)
				if r == u {
					s = next
				}
			}
			succ.Set(c, i, s)
		}
	})
	bitonic.Unsort(c, adj, adjScr, rec, w)

	// τ(a) = Adjsucc(a^1), the cycle broken at e0.
	tau := make([]int, m)
	forkjoin.ParallelRange(c, 0, m, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for a := lo; a < hi; a++ {
			t := succ.Get(c, a^1)
			c.Op(1)
			if t == e0 {
				t = uint64(m) // end of tour
			}
			tau[a] = int(t)
		}
	})
	return tau
}

// arcEnds is arc a's (tail, head): edge a/2 in its own orientation for an
// even a, reversed for an odd one.
func arcEnds(edges [][2]int, a int) (u, v uint64) {
	e := edges[a/2]
	u, v = uint64(e[0]), uint64(e[1])
	if a%2 == 1 {
		u, v = v, u
	}
	return u, v
}

// groupFirst is the segmented scan's carrier over the sorted arcs: an arc
// index and whether its arc opens a group.
type groupFirst struct {
	arc   uint64
	start bool
}

// firstOfGroup is the scan's operator: a group's opening arc overrides what
// came before it, so an inclusive scan leaves every arc its group's first.
func firstOfGroup(x, y groupFirst) groupFirst {
	if y.start {
		return y
	}
	return x
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

// newTreeFuncs allocates the results for n vertices with the root's own
// values set: it is its own parent, at depth and preorder 0, postorder n-1
// and subtree size n. No tour arc writes the root.
func newTreeFuncs(n, root int) TreeFuncs {
	tf := TreeFuncs{
		Parent:      make([]int, n),
		Depth:       make([]uint64, n),
		Preorder:    make([]uint64, n),
		Postorder:   make([]uint64, n),
		SubtreeSize: make([]uint64, n),
	}
	tf.Parent[root] = root
	tf.Postorder[root] = uint64(n - 1)
	tf.SubtreeSize[root] = uint64(n)
	return tf
}

// tour is an Euler tour of m arcs ranked twice, as §5.2 ranks it: the
// unweighted ranks give each arc's position, hence whether it runs forward
// (away from the root, before its reversal), and the ranks weighted by the
// forward arcs count them; every arc weighs 1, so the backward count is
// the difference.
type tour struct {
	after, fwd []uint64 // the unweighted and the forward-weighted ranks
	pos        []uint64 // tour positions
	forward    []bool
	totF, totB uint64 // forward and backward arcs
}

// rankTour derives the tour from its unweighted ranks after and ranks it
// again by rerank, weighted by the forward arcs.
func rankTour(after []uint64, rerank func(weights []uint64) []uint64) tour {
	m := len(after)
	t := tour{after: after, pos: make([]uint64, m), forward: make([]bool, m)}
	for a := range m {
		t.pos[a] = uint64(m-1) - after[a]
	}
	wF := make([]uint64, m)
	for a := range m {
		t.forward[a] = t.pos[a] < t.pos[a^1]
		if t.forward[a] {
			wF[a] = 1
			t.totF++
		}
	}
	t.totB = uint64(m) - t.totF
	t.fwd = rerank(wF)
	return t
}

// incl counts the forward and the backward arcs up to and including arc a.
func (t *tour) incl(a int) (f, b uint64) {
	return t.totF - t.fwd[a], t.totB - (t.after[a] - t.fwd[a])
}

// size is the subtree size below the forward arc a: half the arcs from a
// to its reversal.
func (t *tour) size(a int) uint64 { return (t.pos[a^1] - t.pos[a] + 1) / 2 }

// TreeFunctionsOblivious roots the tree at root and computes parent,
// depth, preorder and postorder numbers, and subtree sizes, by an
// oblivious Euler tour followed by oblivious list rankings on the tour —
// the §5.2 recipe; performance is dominated by list ranking. Both
// rankings (tour) share one permutation and one successor routing: the
// forward-weighted one is a rerank of the unweighted one. The vertex
// values then reach their vertices by three conflict-resolved writes of
// one pram.Scatterer — (parent, depth) and (preorder, subtree size) packed
// two to a word from the forward arc into each vertex, postorder from the
// backward arc out of it.
func TreeFunctionsOblivious(c *forkjoin.Ctx, sp *mem.Space, n int, edges [][2]int, root int, seed uint64, p core.Params) TreeFuncs {
	m := 2 * len(edges)
	tf := newTreeFuncs(n, root)
	if m == 0 {
		return tf
	}
	p = p.Normalized(m)
	tau := EulerTourOblivious(c, sp, n, edges, root)

	// The end arc maps to itself (tail convention of list ranking).
	succ := make([]int, m)
	for a := 0; a < m; a++ {
		if tau[a] == m {
			succ[a] = a
		} else {
			succ[a] = tau[a]
		}
	}
	t := rankTour(rankList(c, sp, succ, nil, seed+1, p))

	w := pram.NewScatterer(sp, n, m, nil)
	write := func(memory *mem.Array[uint64], fwd bool, req func(a int, u, v, f, b uint64) (cell, x uint64)) {
		scatter(c, sp, w, memory, func(c *forkjoin.Ctx, a int) (uint64, uint64) {
			u, v := arcEnds(edges, a)
			f, b := t.incl(a)
			cell, x := req(a, u, v, f, b)
			c.Op(1)
			if t.forward[a] != fwd {
				cell = none
			}
			return cell, x
		})
	}
	const lo32 = 1<<32 - 1
	parentDepth := mem.Alloc[uint64](sp, n)
	preSize := mem.Alloc[uint64](sp, n)
	post := mem.Alloc[uint64](sp, n)
	write(parentDepth, true, func(a int, u, v, f, b uint64) (uint64, uint64) {
		return v, u<<32 | (f - b)
	})
	write(preSize, true, func(a int, u, v, f, b uint64) (uint64, uint64) {
		return v, f<<32 | t.size(a)
	})
	write(post, false, func(a int, u, v, f, b uint64) (uint64, uint64) {
		return u, b - 1
	})

	for v := range n {
		if v == root {
			continue
		}
		pd, ps := parentDepth.Data()[v], preSize.Data()[v]
		tf.Parent[v] = int(pd >> 32)
		tf.Depth[v] = pd & lo32
		tf.Preorder[v] = ps >> 32
		tf.SubtreeSize[v] = ps & lo32
		tf.Postorder[v] = post.Data()[v]
	}
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
	tf := newTreeFuncs(n, root)
	tau := EulerTourSeq(n, edges, root)
	// Tour start: the (u,v)-smallest arc out of root.
	e0, bestKey := -1, uint64(0)
	for a := range m {
		if u, v := arcEnds(edges, a); int(u) == root && (e0 < 0 || arcKey(u, v) < bestKey) {
			e0, bestKey = a, arcKey(u, v)
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
		u, v := arcEnds(edges, a)
		if pos[a] < pos[a^1] { // forward
			fIncl++
			tf.Parent[v] = int(u)
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
// neighbor/successor links, two direct list rankings of the tour (the
// second weighted by the forward arcs, as in tour), and direct scatters.
// Work O(n log n), span O(log² n)-shaped.
func TreeFunctionsDirect(c *forkjoin.Ctx, sp *mem.Space, n int, edges [][2]int, root int, seed uint64) TreeFuncs {
	m := 2 * len(edges)
	tf := newTreeFuncs(n, root)
	if m == 0 {
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

	t := rankTour(ListRankDirect(c, sp, succ, nil), func(weights []uint64) []uint64 {
		return ListRankDirect(c, sp, succ, weights)
	})
	for a := 0; a < m; a++ {
		u, v := arcEnds(edges, a)
		f, b := t.incl(a)
		if t.forward[a] {
			tf.Parent[v] = int(u)
			tf.Depth[v] = f - b
			tf.Preorder[v] = f
			tf.SubtreeSize[v] = t.size(a)
		} else {
			tf.Postorder[u] = b - 1
		}
	}
	return tf
}
