package graph

import (
	"oblivmc/internal/bitonic"
	"oblivmc/internal/core"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/pram"
)

// ExprTree is a full binary expression tree (every internal node has
// exactly two children — the setting of Kosaraju–Delcher rake-based tree
// contraction [KD88]). Arithmetic is over the ring Z/2^64 (natural uint64
// wraparound), under which the rake step's affine-function composition is
// exact.
type ExprTree struct {
	N       int // number of nodes
	Root    int
	Left    []int // child ids; -1 marks a leaf
	Right   []int
	Op      []uint8  // 0 = add, 1 = mul (internal nodes)
	LeafVal []uint64 // leaf values
}

const (
	opAdd = 0
	opMul = 1

	flagAlive  = 1 << 0
	flagIsLeaf = 1 << 1
	flagIsLeft = 1 << 2
	flagOpMul  = 1 << 3

	// none is the null node reference (parent of the root, children of
	// leaves) — far above any node id, so oblivious gathers keyed by it
	// return ⊥.
	none = uint64(1) << 38
)

// Validate checks the full-binary-tree invariant.
func (t ExprTree) Validate() bool {
	if t.N == 0 {
		return false
	}
	for v := 0; v < t.N; v++ {
		l, r := t.Left[v], t.Right[v]
		if (l < 0) != (r < 0) {
			return false
		}
	}
	return true
}

// EvalTreeSeq is the recursive sequential reference.
func EvalTreeSeq(t ExprTree) uint64 {
	var rec func(v int) uint64
	rec = func(v int) uint64 {
		if t.Left[v] < 0 {
			return t.LeafVal[v]
		}
		a, b := rec(t.Left[v]), rec(t.Right[v])
		if t.Op[v] == opMul {
			return a * b
		}
		return a + b
	}
	return rec(t.Root)
}

// treeState is the flat node state of a contraction in progress: one word
// plane per field, NextPow2(n) slots each, of which the first size hold
// the live tree. The compaction sorts the planes in place, the left
// plane the sort key and the right one both children while it runs.
type treeState struct {
	size    int
	planes  *obliv.KeySchedule // the fields below, in plane order
	scr     *obliv.KeySchedule // the compaction sort's scratch
	left    *mem.Array[uint64] // none for leaves
	right   *mem.Array[uint64]
	parent  *mem.Array[uint64] // none for root
	flags   *mem.Array[uint64]
	affA    *mem.Array[uint64] // pending affine a·x+b on the edge to parent
	affB    *mem.Array[uint64]
	leafVal *mem.Array[uint64]
	leafNum *mem.Array[uint64] // 1-based left-to-right leaf number
}

// statePlanes is the number of node fields, each one plane of a treeState.
const statePlanes = 8

// newTreeState allocates the planes of a tree of n nodes.
func newTreeState(sp *mem.Space, n int) treeState {
	w := obliv.NextPow2(n)
	st := treeState{planes: obliv.AllocKeySchedule(sp, w, statePlanes), scr: obliv.AllocKeySchedule(sp, w, statePlanes)}
	st.cut(n)
	return st
}

// cut views the first size slots of each plane as the live tree.
func (st *treeState) cut(size int) {
	st.size = size
	fields := [statePlanes]**mem.Array[uint64]{&st.left, &st.right, &st.parent, &st.flags, &st.affA, &st.affB, &st.leafVal, &st.leafNum}
	for p, f := range fields {
		*f = st.planes.Plane(p).View(0, size)
	}
}

// EvalTreeOblivious evaluates t by the paper's oblivious tree contraction
// (Theorem 5.2(i)): Kosaraju–Delcher rake rounds — all odd-numbered leaves
// that are left children, then those that are right children — realized
// with oblivious gathers/scatters, followed by an oblivious compaction
// that removes the (deterministically sized) dead fraction each round.
// Each round allocates its PRAM work space once (rakeSpace) and sorts 20
// times: per half round one gatherer sort at the parent addresses, one
// re-sort onto the sibling addresses and six writes, then three relabel
// re-sorts and the compaction's one plane sort.
// Work O(Wsort(n)), span O(log n · Tsort(n)), cache O(Qsort(n)).
func EvalTreeOblivious(c *forkjoin.Ctx, sp *mem.Space, t ExprTree, seed uint64, p core.Params) uint64 {
	if !t.Validate() {
		panic("graph: EvalTreeOblivious requires a full binary tree")
	}
	if t.N == 1 {
		return t.LeafVal[t.Root]
	}
	p = p.Normalized(t.N)

	st := initState(c, sp, t, seed, p)
	// Leaf count halves per round; fixed public round count.
	leaves := (t.N + 1) / 2
	rounds := 1
	for (1 << rounds) < leaves {
		rounds++
	}
	rounds++ // slack round: extra rounds are oblivious no-ops
	for r := 0; r < rounds && st.size > 1; r++ {
		// Fixed public round count (leaf count halves per round); an abort
		// here reveals only the round index.
		c.Check("graph.round")
		w := newRakeSpace(sp, st.size)
		rakeHalfRound(c, sp, &st, w, true)
		rakeHalfRound(c, sp, &st, w, false)
		renumberLeaves(c, &st)
		compact(c, sp, &st, w)
	}
	if st.size != 1 {
		panic("graph: contraction did not converge (non-full tree?)")
	}
	a := st.affA.Data()[0]
	b := st.affB.Data()[0]
	v := st.leafVal.Data()[0]
	return a*v + b
}

// initState builds the flat arrays, deriving parents, sides, and oblivious
// left-to-right (in-order) leaf numbers. KD88's parallel rake schedule is
// only conflict-free under a numbering consistent with the Left/Right
// structure, so the numbering is derived from the structural Euler tour:
// arc 2v = parent(v)→v, arc 2v+1 = v→parent(v), with τ locally computable
// from (parent, left, right, side). The tour's leaf-entry arcs are ranked
// by one oblivious list ranking (§5.1); the arc table construction itself
// is input marshalling (static write order, secret values only).
func initState(c *forkjoin.Ctx, sp *mem.Space, t ExprTree, seed uint64, p core.Params) treeState {
	n := t.N
	st := newTreeState(sp, n)
	parent := make([]int, n)
	side := make([]uint64, n)
	for v := 0; v < n; v++ {
		parent[v] = -1
	}
	for v := 0; v < n; v++ {
		if t.Left[v] >= 0 {
			parent[t.Left[v]] = v
			side[t.Left[v]] = flagIsLeft
			parent[t.Right[v]] = v
		}
	}

	// Structural Euler tour as a successor list over 2n arc slots (root
	// slots are inert self-tails), plus leaf-entry weights.
	succ := make([]int, 2*n)
	weights := make([]uint64, 2*n)
	totalLeaves := uint64(0)
	for v := 0; v < n; v++ {
		down, up := 2*v, 2*v+1
		if parent[v] < 0 { // root: inert slots
			succ[down], succ[up] = down, up
			continue
		}
		if t.Left[v] < 0 { // leaf
			succ[down] = up
			weights[down] = 1
			totalLeaves++
		} else {
			succ[down] = 2 * t.Left[v]
		}
		pv := parent[v]
		if side[v] == flagIsLeft {
			succ[up] = 2 * t.Right[pv]
		} else if parent[pv] < 0 {
			succ[up] = up // tour end
		} else {
			succ[up] = 2*pv + 1
		}
	}
	if t.Left[t.Root] < 0 { // degenerate single-node tree
		totalLeaves = 1
	}
	rank := ListRankOblivious(c, sp, succ, weights, seed, p)

	// leafNum(v) = leaf-entry arcs up to and including v's entry arc.
	leafNums := make([]uint64, n)
	for v := 0; v < n; v++ {
		if t.Left[v] < 0 && parent[v] >= 0 {
			leafNums[v] = totalLeaves - rank[2*v]
		}
	}
	if t.Left[t.Root] < 0 {
		leafNums[t.Root] = 1
	}
	forkjoin.ParallelRange(c, 0, n, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for v := lo; v < hi; v++ {
			st.leafNum.Set(c, v, leafNums[v])
		}
	})

	// Fill the remaining state.
	forkjoin.ParallelRange(c, 0, n, 0, func(c *forkjoin.Ctx, v, hi int) {
		for ; v < hi; v++ {
			pv := none
			if parent[v] >= 0 {
				pv = uint64(parent[v])
			}
			st.parent.Set(c, v, pv)
			l, r := none, none
			fl := uint64(flagAlive) | side[v]
			var lv uint64
			c.Op(2)
			if t.Left[v] >= 0 {
				l, r = uint64(t.Left[v]), uint64(t.Right[v])
				if t.Op[v] == opMul {
					fl |= flagOpMul
				}
			} else {
				fl |= flagIsLeaf
				lv = t.LeafVal[v]
			}
			st.left.Set(c, v, l)
			st.right.Set(c, v, r)
			st.flags.Set(c, v, fl)
			st.affA.Set(c, v, 1)
			st.affB.Set(c, v, 0)
			st.leafVal.Set(c, v, lv)
		}
	})
	return st
}

// rakeSpace is one contraction round's PRAM work space over the m nodes of
// the tree it starts with: a jumper whose gatherer reads at the parent
// addresses and is re-addressed to the sibling list (the jumper's held
// address plane) and to the compaction's relabel lists; a scatterer of m
// requests for the writes into node fields and one of 3m requests for the
// flag writes; and the parent and sibling reads a half round holds. One
// router serves them all.
type rakeSpace struct {
	j                      *jumper
	one, kill              *pram.Scatterer
	pf, pa, pb, gp, sa, sb *mem.Array[uint64]
}

func newRakeSpace(sp *mem.Space, m int) *rakeSpace {
	// The flag writes' NextPow2(4m) slots bound the gathers' and the node
	// writes'.
	route := obliv.NewRouter(sp, m, obliv.NextPow2(3*m))
	w := &rakeSpace{
		j:    newJumper(sp, m, route),
		one:  pram.NewScatterer(sp, m, m, route),
		kill: pram.NewScatterer(sp, m, 3*m, route),
	}
	for _, a := range []**mem.Array[uint64]{&w.pf, &w.pa, &w.pb, &w.gp, &w.sa, &w.sb} {
		*a = mem.Alloc[uint64](sp, m)
	}
	return w
}

// rakeHalfRound rakes every alive odd-numbered leaf on the given side: one
// gatherer sort at the parent addresses serves the five parent reads by
// replay, one re-sort onto the sibling addresses the three sibling reads,
// and six writes apply the rake.
func rakeHalfRound(c *forkjoin.Ctx, sp *mem.Space, st *treeState, w *rakeSpace, leftSide bool) {
	m := st.size
	j := w.j
	hold := func(dst, vals *mem.Array[uint64]) { mem.CopyPar(c, dst, 0, vals, 0, m) }

	// The parent's record for every node (the root reads 0). A raker's
	// sibling is its parent's other child: the right one on the left side.
	hold(w.pf, j.gather(c, sp, st.flags, st.parent))
	other := st.left
	if leftSide {
		other = st.right
	}
	pOther := j.g.Values(c, sp, other)
	// sib names a raker's sibling and is none for every other node: the
	// sibling reads at it, and the writes addressed by it write nothing.
	sib := j.dw
	forkjoin.ParallelRange(c, 0, m, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for u := lo; u < hi; u++ {
			fl := st.flags.Get(c, u)
			num := st.leafNum.Get(c, u)
			par := st.parent.Get(c, u)
			o := pOther.Get(c, u)
			s := none
			c.Op(2)
			if fl&flagAlive != 0 && fl&flagIsLeaf != 0 && num%2 == 1 &&
				(fl&flagIsLeft != 0) == leftSide && par < uint64(m) {
				s = o
			}
			sib.Set(c, u, s)
		}
	})
	hold(w.pa, j.g.Values(c, sp, st.affA))
	hold(w.pb, j.g.Values(c, sp, st.affB))
	hold(w.gp, j.g.Values(c, sp, st.parent))
	hold(w.sa, j.gather(c, sp, st.affA, sib))
	hold(w.sb, j.g.Values(c, sp, st.affB))
	sFlags := j.g.Values(c, sp, st.flags)

	// The raked sibling s takes the parent's place: s's edge function
	// becomes the composition through p, s inherits p's parent and side,
	// and the grandparent's child pointer moves from p to s. The new edge
	// function goes to pa, pb, which only this half round reads.
	na, nb := w.pa, w.pb
	forkjoin.ParallelRange(c, 0, m, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for u := lo; u < hi; u++ {
			pf := w.pf.Get(c, u)
			pa, pb := w.pa.Get(c, u), w.pb.Get(c, u)
			sa, sb := w.sa.Get(c, u), w.sb.Get(c, u)
			cu := st.affA.Get(c, u)*st.leafVal.Get(c, u) + st.affB.Get(c, u)
			a, b := pa*sa, pa*(sb+cu)+pb
			c.Op(4)
			if pf&flagOpMul != 0 {
				a, b = pa*sa*cu, pa*(sb*cu)+pb
			}
			na.Set(c, u, a)
			nb.Set(c, u, b)
		}
	})
	scatter(c, sp, w.one, st.parent, func(c *forkjoin.Ctx, u int) (uint64, uint64) {
		return sib.Get(c, u), w.gp.Get(c, u)
	})
	scatter(c, sp, w.one, st.affA, func(c *forkjoin.Ctx, u int) (uint64, uint64) {
		return sib.Get(c, u), na.Get(c, u)
	})
	scatter(c, sp, w.one, st.affB, func(c *forkjoin.Ctx, u int) (uint64, uint64) {
		return sib.Get(c, u), nb.Get(c, u)
	})
	for _, child := range []struct {
		arr  *mem.Array[uint64]
		left bool
	}{{st.left, true}, {st.right, false}} {
		scatter(c, sp, w.one, child.arr, func(c *forkjoin.Ctx, u int) (uint64, uint64) {
			s, gp, pf := sib.Get(c, u), w.gp.Get(c, u), w.pf.Get(c, u)
			a := none
			c.Op(1)
			if s != none && (pf&flagIsLeft != 0) == child.left {
				a = gp // none when p is the root: nothing to repoint
			}
			return a, s
		})
	}
	// Flags: s inherits p's side bit; the raker and its parent die.
	scatter(c, sp, w.kill, st.flags, func(c *forkjoin.Ctx, i int) (uint64, uint64) {
		u := i % m
		s, pf := sib.Get(c, u), w.pf.Get(c, u)
		var a, f uint64
		switch i / m {
		case 0:
			a, f = s, (sFlags.Get(c, u)&^uint64(flagIsLeft))|(pf&flagIsLeft)
		case 1:
			a, f = uint64(u), st.flags.Get(c, u)&^uint64(flagAlive)
		default:
			a, f = st.parent.Get(c, u), pf&^uint64(flagAlive)
		}
		c.Op(1)
		if s == none {
			a = none
		}
		return a, f
	})
}

// renumberLeaves halves every alive leaf's number (all odd numbers were
// raked this round).
func renumberLeaves(c *forkjoin.Ctx, st *treeState) {
	forkjoin.ParallelRange(c, 0, st.size, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for u := lo; u < hi; u++ {
			num := st.leafNum.Get(c, u)
			st.leafNum.Set(c, u, num/2)
		}
	})
}

// compact removes dead nodes: new ids by oblivious prefix sum over alive
// flags, reference relabeling by the round's gatherer re-addressed to each
// reference list, then one oblivious sort of the state's planes, in place,
// that moves the alive records to the front. The alive count is
// a deterministic function of the round (the rake schedule kills exactly
// the odd leaves and their parents), so revealing it leaks nothing.
func compact(c *forkjoin.Ctx, sp *mem.Space, st *treeState, w *rakeSpace) {
	m := st.size

	alive := mem.Alloc[uint64](sp, m)
	forkjoin.ParallelRange(c, 0, m, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for u := lo; u < hi; u++ {
			alive.Set(c, u, st.flags.Get(c, u)&flagAlive)
		}
	})
	newID := mem.Alloc[uint64](sp, m)
	mem.CopyPar(c, newID, 0, alive, 0, m)
	obliv.PrefixSumU64(c, sp, newID, false)
	newSize := int(newID.Get(c, m-1) + alive.Get(c, m-1))

	// Relabel parent/left/right to new ids; none reads ⊥ and stays none.
	for _, arr := range []*mem.Array[uint64]{st.parent, st.left, st.right} {
		routed := w.j.gather(c, sp, newID, arr)
		forkjoin.ParallelRange(c, 0, m, 0, func(c *forkjoin.Ctx, lo, hi int) {
			for u := lo; u < hi; u++ {
				v, r := arr.Get(c, u), routed.Get(c, u)
				c.Op(1)
				if v < uint64(m) {
					v = r
				}
				arr.Set(c, u, v)
			}
		})
	}

	// Sort the records by (dead, id), alive first and stable by id, on the
	// left plane, every field carried; the padding keys InfKey. Children
	// pack into 32 bits each in the right plane; none becomes mask32 (node
	// ids are < 2^31, so any value >= newSize unpacks as none).
	const mask32 = 1<<32 - 1
	wl := obliv.NextPow2(m)
	keys, kids := st.planes.Plane(0), st.planes.Plane(1)
	forkjoin.ParallelRange(c, 0, wl, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for u := lo; u < hi; u++ {
			key, lr := obliv.InfKey, uint64(0)
			if u < m {
				l, r := keys.Get(c, u), kids.Get(c, u)
				key = uint64(u)
				c.Op(3)
				if st.flags.Get(c, u)&flagAlive == 0 {
					key |= 1 << 41
				}
				lr = min(l, mask32)<<32 | min(r, mask32)
			}
			keys.Set(c, u, key)
			kids.Set(c, u, lr)
		}
	})
	bitonic.SortRecorded(c, st.planes, st.scr, 1, nil, wl)

	// The first newSize records are the new tree; restore none markers
	// (anything outside the live id range).
	st.cut(newSize)
	forkjoin.ParallelRange(c, 0, newSize, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for u := lo; u < hi; u++ {
			lr := st.right.Get(c, u)
			l, r := lr>>32, lr&mask32
			c.Op(2)
			if l >= uint64(newSize) {
				l = none
			}
			if r >= uint64(newSize) {
				r = none
			}
			st.left.Set(c, u, l)
			st.right.Set(c, u, r)
		}
	})
}

// EvalTreeDirect is the insecure baseline for tree contraction: a parallel
// recursive descent with direct memory accesses — O(n) work and span
// proportional to the tree depth (for balanced random trees, O(log n); a
// skewed tree degrades it, which is exactly the weakness rake-based
// contraction fixes).
func EvalTreeDirect(c *forkjoin.Ctx, sp *mem.Space, t ExprTree) uint64 {
	left := mem.FromSlice(sp, t.Left)
	right := mem.FromSlice(sp, t.Right)
	op := mem.FromSlice(sp, t.Op)
	leafVal := mem.FromSlice(sp, t.LeafVal)
	var rec func(c *forkjoin.Ctx, v int) uint64
	rec = func(c *forkjoin.Ctx, v int) uint64 {
		l := left.Get(c, v)
		c.Op(1)
		if l < 0 {
			return leafVal.Get(c, v)
		}
		r := right.Get(c, v)
		var a, b uint64
		c.Fork(
			func(c *forkjoin.Ctx) { a = rec(c, l) },
			func(c *forkjoin.Ctx) { b = rec(c, r) },
		)
		c.Op(1)
		if op.Get(c, v) == opMul {
			return a * b
		}
		return a + b
	}
	return rec(c, t.Root)
}
