// Package graph implements the paper's applications (§5): list ranking,
// Euler tour and rooted-tree computations, tree contraction, connected
// components, and minimum spanning forest — each in a data-oblivious,
// cache-agnostic, binary fork-join version built on the core sorting
// primitive, plus direct (insecure) baselines and sequential references
// for the Table 1 comparisons.
package graph

import (
	"oblivmc/internal/core"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/pram"
)

// Tail marks a list tail: succ[i] == i.
//
// ListRankOblivious obliviously realizes (weighted) list ranking
// (Theorem 5.1): rank[i] is the sum of weights of the elements strictly
// ahead of i (between i and the tail); with nil weights every element
// weighs 1, so rank[i] is the number of elements ahead of i.
//
// Pipeline per §5.1: obliviously permute the entries (ORP), give each
// permuted entry its successor's permuted position, run the insecure
// pointer-jumping ranking on the permuted array — its accesses are
// distributed independently of the list structure because the permutation
// is — and route the answers back obliviously. The routing runs on the
// PRAM layer's word planes: one scatter writes every entry's permuted
// position and weight to the cell of its original index, one gather reads
// them back at the successors' original indices, and the same scatterer
// writes the ranks home: three sorts and one un-sort of NextPow2(n) words
// besides the ORP's.
//
// Requirements: weights < 2^32, n < 2^31.
func ListRankOblivious(c *forkjoin.Ctx, sp *mem.Space, succ []int, weights []uint64, seed uint64, p core.Params) []uint64 {
	n := len(succ)
	if n == 0 {
		return nil
	}
	p = p.Normalized(n)

	// Entries: Key = successor's original index (self = tail),
	// Val = weight, Aux = own original index.
	in := mem.Alloc[obliv.Elem](sp, n)
	for i := 0; i < n; i++ {
		w := uint64(1)
		if weights != nil {
			w = weights[i]
		}
		in.Data()[i] = obliv.Elem{Key: uint64(succ[i]), Val: w, Aux: uint64(i), Kind: obliv.Real}
	}

	perm, _ := core.MustRandomPermutation(c, sp, in, seed, p)

	// Each permuted entry writes pos<<32|weight to the cell of its
	// original index and names its successor's; a tail names its own.
	route := obliv.NewRouter(sp, n, obliv.NextPow2(n))
	home := pram.NewScatterer(sp, n, n, p.Sorter, route)
	next := mem.Alloc[uint64](sp, n)
	cells := mem.Alloc[uint64](sp, n)
	scatter(c, sp, home, cells, func(c *forkjoin.Ctx, pos int) (uint64, uint64) {
		e := perm.Get(c, pos)
		next.Set(c, pos, e.Key)
		return e.Aux, uint64(pos)<<32 | (e.Val & 0xffffffff)
	})
	routed := pram.NewGatherer(c, sp, n, next, p.Sorter, route).Values(c, sp, cells)

	// Permuted-order successor and rank arrays. S == n marks the tail, the
	// one entry whose successor sits at its own position.
	s0 := mem.Alloc[uint64](sp, n)
	r0 := mem.Alloc[uint64](sp, n)
	s1 := mem.Alloc[uint64](sp, n)
	r1 := mem.Alloc[uint64](sp, n)
	forkjoin.ParallelRange(c, 0, n, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for pos := lo; pos < hi; pos++ {
			x := routed.Get(c, pos)
			s, r := x>>32, x&0xffffffff // the successor's position and weight
			c.Op(1)
			if s == uint64(pos) {
				s, r = uint64(n), 0
			}
			s0.Set(c, pos, s)
			r0.Set(c, pos, r)
		}
	})

	// Wyllie pointer jumping on the permuted arrays (insecure accesses,
	// safe by the random-permutation argument), fixed ⌈log₂ n⌉ rounds.
	rounds := 0
	for (1 << rounds) < n {
		rounds++
	}
	cs, cr, ns, nr := s0, r0, s1, r1
	for round := 0; round < rounds; round++ {
		// Pointer-jumping round count is ⌈log₂ n⌉ — public shape, so a
		// cancellation here reveals only the round index.
		c.Check("graph.round")
		forkjoin.ParallelRange(c, 0, n, 0, func(c *forkjoin.Ctx, lo, hi int) {
			for pos := lo; pos < hi; pos++ {
				s := cs.Get(c, pos)
				r := cr.Get(c, pos)
				c.Op(1)
				if s < uint64(n) {
					nr.Set(c, pos, r+cr.Get(c, int(s)))
					ns.Set(c, pos, cs.Get(c, int(s)))
				} else {
					nr.Set(c, pos, r)
					ns.Set(c, pos, s)
				}
			}
		})
		cs, ns = ns, cs
		cr, nr = nr, cr
	}

	// Route the ranks back to original order: the same scatter, each
	// permuted entry writing its rank to the cell of its original index.
	scatter(c, sp, home, cells, func(c *forkjoin.Ctx, pos int) (uint64, uint64) {
		return perm.Get(c, pos).Aux, cr.Get(c, pos)
	})

	out := make([]uint64, n)
	copy(out, cells.Data())
	return out
}

// ListRankDirect is the insecure baseline: Wyllie pointer jumping with
// direct accesses on the input order — O(n log n) work, O(log² n) span
// under binary forking, data-dependent access pattern.
func ListRankDirect(c *forkjoin.Ctx, sp *mem.Space, succ []int, weights []uint64) []uint64 {
	n := len(succ)
	if n == 0 {
		return nil
	}
	s0 := mem.Alloc[uint64](sp, n)
	r0 := mem.Alloc[uint64](sp, n)
	s1 := mem.Alloc[uint64](sp, n)
	r1 := mem.Alloc[uint64](sp, n)
	w := func(i int) uint64 {
		if weights == nil {
			return 1
		}
		return weights[i]
	}
	forkjoin.ParallelRange(c, 0, n, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			if succ[i] == i {
				s0.Set(c, i, uint64(n))
				r0.Set(c, i, 0)
			} else {
				s0.Set(c, i, uint64(succ[i]))
				r0.Set(c, i, w(succ[i]))
			}
		}
	})
	rounds := 0
	for (1 << rounds) < n {
		rounds++
	}
	cs, cr, ns, nr := s0, r0, s1, r1
	for round := 0; round < rounds; round++ {
		c.Check("graph.round")
		forkjoin.ParallelRange(c, 0, n, 0, func(c *forkjoin.Ctx, lo, hi int) {
			for i := lo; i < hi; i++ {
				s := cs.Get(c, i)
				r := cr.Get(c, i)
				c.Op(1)
				if s < uint64(n) {
					nr.Set(c, i, r+cr.Get(c, int(s)))
					ns.Set(c, i, cs.Get(c, int(s)))
				} else {
					nr.Set(c, i, r)
					ns.Set(c, i, s)
				}
			}
		})
		cs, ns = ns, cs
		cr, nr = nr, cr
	}
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		out[i] = cr.Data()[i]
	}
	return out
}

// ListRankSeq is the O(n) sequential reference.
func ListRankSeq(succ []int, weights []uint64) []uint64 {
	n := len(succ)
	out := make([]uint64, n)
	// Find the tail, then walk backwards via a predecessor map.
	pred := make([]int, n)
	for i := range pred {
		pred[i] = -1
	}
	tail := -1
	for i, s := range succ {
		if s == i {
			tail = i
		} else {
			pred[s] = i
		}
	}
	if tail < 0 {
		return out
	}
	w := func(i int) uint64 {
		if weights == nil {
			return 1
		}
		return weights[i]
	}
	acc := uint64(0)
	for v := tail; v >= 0; v = pred[v] {
		out[v] = acc
		acc += w(v)
	}
	return out
}
