package graph

import (
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

// treeState is the flat node state of a contraction in progress.
type treeState struct {
	size    int
	parent  *mem.Array[uint64] // none for root
	left    *mem.Array[uint64] // none for leaves
	right   *mem.Array[uint64]
	flags   *mem.Array[uint64]
	affA    *mem.Array[uint64] // pending affine a·x+b on the edge to parent
	affB    *mem.Array[uint64]
	leafVal *mem.Array[uint64]
	leafNum *mem.Array[uint64] // 1-based left-to-right leaf number
}

// EvalTreeOblivious evaluates t by the paper's oblivious tree contraction
// (Theorem 5.2(i)): Kosaraju–Delcher rake rounds — all odd-numbered leaves
// that are left children, then those that are right children — realized
// with oblivious gathers/scatters, followed by an oblivious compaction
// that removes the (deterministically sized) dead fraction each round.
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
		rakeHalfRound(c, sp, &st, true, p)
		rakeHalfRound(c, sp, &st, false, p)
		renumberLeaves(c, &st)
		compact(c, sp, &st, p)
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
	st := treeState{
		size:    n,
		parent:  mem.Alloc[uint64](sp, n),
		left:    mem.Alloc[uint64](sp, n),
		right:   mem.Alloc[uint64](sp, n),
		flags:   mem.Alloc[uint64](sp, n),
		affA:    mem.Alloc[uint64](sp, n),
		affB:    mem.Alloc[uint64](sp, n),
		leafVal: mem.Alloc[uint64](sp, n),
		leafNum: mem.Alloc[uint64](sp, n),
	}
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

// rakeHalfRound rakes every alive odd-numbered leaf on the given side.
func rakeHalfRound(c *forkjoin.Ctx, sp *mem.Space, st *treeState, leftSide bool, p core.Params) {
	m := st.size
	srt := p.Sorter

	// Gather the parent's record for every node (root queries ⊥).
	pLeft := pram.Gather(c, sp, st.left, st.parent, srt)
	pRight := pram.Gather(c, sp, st.right, st.parent, srt)
	pFlags := pram.Gather(c, sp, st.flags, st.parent, srt)
	pA := pram.Gather(c, sp, st.affA, st.parent, srt)
	pB := pram.Gather(c, sp, st.affB, st.parent, srt)
	pParent := pram.Gather(c, sp, st.parent, st.parent, srt)

	// Sibling ids (valid only for rakers; ⊥ queries otherwise).
	sib := mem.Alloc[uint64](sp, m)
	raker := mem.Alloc[uint64](sp, m)
	forkjoin.ParallelRange(c, 0, m, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for u := lo; u < hi; u++ {
			fl := st.flags.Get(c, u)
			num := st.leafNum.Get(c, u)
			pf := pFlags.Get(c, u)
			isRaker := fl&flagAlive != 0 && fl&flagIsLeaf != 0 && num%2 == 1 &&
				(fl&flagIsLeft != 0) == leftSide && pf.Kind == obliv.Real
			s := none
			c.Op(2)
			if isRaker {
				if leftSide {
					s = pRight.Get(c, u).Val
				} else {
					s = pLeft.Get(c, u).Val
				}
				raker.Set(c, u, 1)
			} else {
				// Balance the conditional access pattern: one dummy read.
				if leftSide {
					pRight.Get(c, u)
				} else {
					pLeft.Get(c, u)
				}
				raker.Set(c, u, 0)
			}
			sib.Set(c, u, s)
		}
	})
	sA := pram.Gather(c, sp, st.affA, sib, srt)
	sB := pram.Gather(c, sp, st.affB, sib, srt)
	sFlags := pram.Gather(c, sp, st.flags, sib, srt)

	// Build all write requests.
	reqSibParent := mem.Alloc[obliv.Elem](sp, m)
	reqSibA := mem.Alloc[obliv.Elem](sp, m)
	reqSibB := mem.Alloc[obliv.Elem](sp, m)
	reqLeft := mem.Alloc[obliv.Elem](sp, m)
	reqRight := mem.Alloc[obliv.Elem](sp, m)
	reqFlags := mem.Alloc[obliv.Elem](sp, 3*m)
	forkjoin.ParallelRange(c, 0, m, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for u := lo; u < hi; u++ {
			isRaker := raker.Get(c, u) == 1
			s := sib.Get(c, u)
			gp := pParent.Get(c, u)
			pf := pFlags.Get(c, u)
			pa, pb := pA.Get(c, u).Val, pB.Get(c, u).Val
			sa, sb := sA.Get(c, u).Val, sB.Get(c, u).Val
			sf := sFlags.Get(c, u).Val
			a := st.affA.Get(c, u)
			b := st.affB.Get(c, u)
			lv := st.leafVal.Get(c, u)
			myParent := st.parent.Get(c, u)
			myFlags := st.flags.Get(c, u)

			fill := obliv.Elem{Kind: obliv.Filler}
			sp2, sa2, sb2, lg, rg := fill, fill, fill, fill, fill
			fU, fP, fS := fill, fill, fill
			c.Op(8)
			if isRaker {
				cu := a*lv + b
				var na, nb uint64
				if pf.Val&flagOpMul != 0 {
					na = pa * sa * cu
					nb = pa*(sb*cu) + pb
				} else {
					na = pa * sa
					nb = pa*(sb+cu) + pb
				}
				gpID := none
				if gp.Kind == obliv.Real {
					gpID = gp.Val
				}
				sp2 = obliv.Elem{Key: s, Val: gpID, Aux: uint64(u), Kind: obliv.Real}
				sa2 = obliv.Elem{Key: s, Val: na, Aux: uint64(u), Kind: obliv.Real}
				sb2 = obliv.Elem{Key: s, Val: nb, Aux: uint64(u), Kind: obliv.Real}
				// New flags for s: inherit p's side bit.
				nsf := (sf &^ uint64(flagIsLeft)) | (pf.Val & flagIsLeft)
				fS = obliv.Elem{Key: s, Val: nsf, Aux: uint64(u), Kind: obliv.Real}
				// gp's child pointer that pointed to p now points to s.
				if gpID != none {
					if pf.Val&flagIsLeft != 0 {
						lg = obliv.Elem{Key: gpID, Val: s, Aux: uint64(u), Kind: obliv.Real}
					} else {
						rg = obliv.Elem{Key: gpID, Val: s, Aux: uint64(u), Kind: obliv.Real}
					}
				}
				// Kill u and p.
				fU = obliv.Elem{Key: uint64(u), Val: myFlags &^ uint64(flagAlive), Aux: uint64(u), Kind: obliv.Real}
				fP = obliv.Elem{Key: myParent, Val: pf.Val &^ uint64(flagAlive), Aux: uint64(u), Kind: obliv.Real}
			}
			reqSibParent.Set(c, u, sp2)
			reqSibA.Set(c, u, sa2)
			reqSibB.Set(c, u, sb2)
			reqLeft.Set(c, u, lg)
			reqRight.Set(c, u, rg)
			reqFlags.Set(c, u, fS)
			reqFlags.Set(c, m+u, fU)
			reqFlags.Set(c, 2*m+u, fP)
		}
	})
	pram.ScatterResolve(c, sp, st.parent, reqSibParent, srt)
	pram.ScatterResolve(c, sp, st.affA, reqSibA, srt)
	pram.ScatterResolve(c, sp, st.affB, reqSibB, srt)
	pram.ScatterResolve(c, sp, st.left, reqLeft, srt)
	pram.ScatterResolve(c, sp, st.right, reqRight, srt)
	pram.ScatterResolve(c, sp, st.flags, reqFlags, srt)
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
// flags, reference relabeling by oblivious gathers, then two packed
// oblivious sorts that move the alive records to the front. The alive
// count is a deterministic function of the round (the rake schedule kills
// exactly the odd leaves and their parents), so revealing it leaks
// nothing.
func compact(c *forkjoin.Ctx, sp *mem.Space, st *treeState, p core.Params) {
	m := st.size
	srt := p.Sorter

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

	// Relabel parent/left/right to new ids (none stays none via ⊥).
	relabel := func(arr *mem.Array[uint64]) {
		routed := pram.Gather(c, sp, newID, arr, srt)
		forkjoin.ParallelRange(c, 0, m, 0, func(c *forkjoin.Ctx, lo, hi int) {
			for u := lo; u < hi; u++ {
				r := routed.Get(c, u)
				v := none
				c.Op(1)
				if r.Kind == obliv.Real {
					v = r.Val
				}
				arr.Set(c, u, v)
			}
		})
	}
	relabel(st.parent)
	relabel(st.left)
	relabel(st.right)

	// Pack and obliviously sort records: alive first, stable by id.
	wl := obliv.NextPow2(m)
	wA := mem.Alloc[obliv.Elem](sp, wl)
	wB := mem.Alloc[obliv.Elem](sp, wl)
	const mask32 = 1<<32 - 1
	forkjoin.ParallelRange(c, 0, m, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for u := lo; u < hi; u++ {
			fl := st.flags.Get(c, u)
			deadBit := uint64(1)
			if fl&flagAlive != 0 {
				deadBit = 0
			}
			key := deadBit<<41 | uint64(u)
			// Pack children into 32 bits each; none becomes mask32 (node
			// ids are < 2^31, so any value >= newSize unpacks as none).
			l, r := st.left.Get(c, u), st.right.Get(c, u)
			c.Op(2)
			if l >= mask32 {
				l = mask32
			}
			if r >= mask32 {
				r = mask32
			}
			wA.Set(c, u, obliv.Elem{
				Key: key, Val: st.parent.Get(c, u),
				Aux: l<<32 | r,
				Lbl: st.leafNum.Get(c, u), Kind: obliv.Real,
			})
			wB.Set(c, u, obliv.Elem{
				Key: key, Val: st.affA.Get(c, u), Aux: st.affB.Get(c, u),
				Lbl: st.leafVal.Get(c, u), Tag: uint32(fl), Kind: obliv.Real,
			})
		}
	})
	packKey := func(e obliv.Elem) uint64 {
		if e.Kind != obliv.Real {
			return obliv.InfKey
		}
		return e.Key
	}
	obliv.SortKeyed(c, sp, wA.View(0, wl), wl, packKey, srt)
	obliv.SortKeyed(c, sp, wB.View(0, wl), wl, packKey, srt)

	ns := treeState{
		size:    newSize,
		parent:  mem.Alloc[uint64](sp, newSize),
		left:    mem.Alloc[uint64](sp, newSize),
		right:   mem.Alloc[uint64](sp, newSize),
		flags:   mem.Alloc[uint64](sp, newSize),
		affA:    mem.Alloc[uint64](sp, newSize),
		affB:    mem.Alloc[uint64](sp, newSize),
		leafVal: mem.Alloc[uint64](sp, newSize),
		leafNum: mem.Alloc[uint64](sp, newSize),
	}
	forkjoin.ParallelRange(c, 0, newSize, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for u := lo; u < hi; u++ {
			ea := wA.Get(c, u)
			eb := wB.Get(c, u)
			ns.parent.Set(c, u, ea.Val)
			l := ea.Aux >> 32
			r := ea.Aux & mask32
			// Restore none markers (anything outside the live id range).
			c.Op(2)
			if l >= uint64(newSize) {
				l = none
			}
			if r >= uint64(newSize) {
				r = none
			}
			ns.left.Set(c, u, l)
			ns.right.Set(c, u, r)
			ns.leafNum.Set(c, u, ea.Lbl)
			ns.affA.Set(c, u, eb.Val)
			ns.affB.Set(c, u, eb.Aux)
			ns.leafVal.Set(c, u, eb.Lbl)
			ns.flags.Set(c, u, uint64(eb.Tag))
		}
	})
	*st = ns
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
