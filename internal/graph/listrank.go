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
	rank, _ := rankList(c, sp, succ, weights, seed, p)
	return rank
}

// rankList is ListRankOblivious, which also returns rerank: the ranks of
// the same list under other weights, on the same permutation and routing.
// A rerank puts the weights in the cells by original index, replays the
// recorded successor gather, jumps and writes the ranks home — one sort
// and one un-sort, no ORP. Its jumps read the addresses the first
// ranking's read, a function of the permutation and the list alone, and
// the gather and the scatter depend on n alone, so a rerank reveals
// nothing new. The first rerank keeps the successor positions out of the
// first gather's plane, which its own gather overwrites. Reranks run
// sequentially, on the executor of the first ranking.
func rankList(c *forkjoin.Ctx, sp *mem.Space, succ []int, weights []uint64, seed uint64, p core.Params) (rank []uint64, rerank func(weights []uint64) []uint64) {
	n := len(succ)
	if n == 0 {
		return nil, func([]uint64) []uint64 { return nil }
	}
	p = p.Normalized(n)

	// Entries: Key = successor's original index (self = tail),
	// Val = weight, Aux = own original index.
	in := mem.Alloc[obliv.Elem](sp, n)
	for i := 0; i < n; i++ {
		in.Data()[i] = obliv.Elem{Key: uint64(succ[i]), Val: weightOf(weights, i), Aux: uint64(i), Kind: obliv.Real}
	}

	perm, _ := core.MustRandomPermutation(c, sp, in, seed, p)

	// Each permuted entry writes pos<<32|weight to the cell of its
	// original index and names its successor's; a tail names its own.
	route := obliv.NewRouter(sp, n, obliv.NextPow2(n))
	home := pram.NewScatterer(sp, n, n, route)
	next := mem.Alloc[uint64](sp, n)
	cells := mem.Alloc[uint64](sp, n)
	scatter(c, sp, home, cells, func(c *forkjoin.Ctx, pos int) (uint64, uint64) {
		e := perm.Get(c, pos)
		next.Set(c, pos, e.Key)
		return e.Aux, uint64(pos)<<32 | (e.Val & 0xffffffff)
	})
	succs := pram.NewGatherer(c, sp, n, next, route)

	// jump ranks the permuted list from each entry's successor position
	// and weight, read by link — a tail names its own position — and
	// writes the ranks home: the same scatter, each permuted entry writing
	// its rank to the cell of its original index.
	s, r := mem.Alloc[uint64](sp, n), mem.Alloc[uint64](sp, n)
	s1, r1 := mem.Alloc[uint64](sp, n), mem.Alloc[uint64](sp, n)
	jump := func(link func(c *forkjoin.Ctx, pos int) (s, r uint64)) []uint64 {
		forkjoin.ParallelRange(c, 0, n, 0, func(c *forkjoin.Ctx, lo, hi int) {
			for pos := lo; pos < hi; pos++ {
				sn, w := link(c, pos)
				c.Op(1)
				if sn == uint64(pos) {
					sn, w = uint64(n), 0
				}
				s.Set(c, pos, sn)
				r.Set(c, pos, w)
			}
		})
		ranks := wyllie(c, s, r, s1, r1)
		scatter(c, sp, home, cells, func(c *forkjoin.Ctx, pos int) (uint64, uint64) {
			return perm.Get(c, pos).Aux, ranks.Get(c, pos)
		})
		out := make([]uint64, n)
		copy(out, cells.Data())
		return out
	}
	routed := succs.Values(c, sp, cells)
	rank = jump(func(c *forkjoin.Ctx, pos int) (uint64, uint64) {
		x := routed.Get(c, pos)
		return x >> 32, x & 0xffffffff
	})

	var at *mem.Array[uint64] // the successor positions, kept at the first rerank
	rerank = func(weights []uint64) []uint64 {
		if at == nil {
			at = mem.Alloc[uint64](sp, n)
			forkjoin.ParallelRange(c, 0, n, 0, func(c *forkjoin.Ctx, lo, hi int) {
				for pos := lo; pos < hi; pos++ {
					at.Set(c, pos, routed.Get(c, pos)>>32)
				}
			})
		}
		forkjoin.ParallelRange(c, 0, n, 0, func(c *forkjoin.Ctx, lo, hi int) {
			for i := lo; i < hi; i++ {
				cells.Set(c, i, weightOf(weights, i))
			}
		})
		w := succs.Values(c, sp, cells)
		return jump(func(c *forkjoin.Ctx, pos int) (uint64, uint64) {
			return at.Get(c, pos), w.Get(c, pos)
		})
	}
	return rank, rerank
}

// wyllie ranks a list by Wyllie pointer jumping: s[i] names entry i's
// successor, or n at the tail, and r[i] holds that successor's weight, 0
// at the tail. Each of ⌈log₂ n⌉ rounds jumps every entry over its
// successor into the other buffers ns and nr; wyllie returns the plane
// holding the ranks. Its reads follow s, so its access pattern is the
// list's: the oblivious kernel jumps on a randomly permuted list only.
func wyllie(c *forkjoin.Ctx, s, r, ns, nr *mem.Array[uint64]) *mem.Array[uint64] {
	n := s.Len()
	for range obliv.Log2Ceil(n) {
		// The round count is public shape, so a cancellation here reveals
		// only the round index.
		c.Check("graph.round")
		forkjoin.ParallelRange(c, 0, n, 0, func(c *forkjoin.Ctx, lo, hi int) {
			for i := lo; i < hi; i++ {
				si := s.Get(c, i)
				ri := r.Get(c, i)
				c.Op(1)
				if si < uint64(n) {
					nr.Set(c, i, ri+r.Get(c, int(si)))
					ns.Set(c, i, s.Get(c, int(si)))
				} else {
					nr.Set(c, i, ri)
					ns.Set(c, i, si)
				}
			}
		})
		s, ns = ns, s
		r, nr = nr, r
	}
	return r
}

// weightOf is entry i's weight: 1 when weights is nil.
func weightOf(weights []uint64, i int) uint64 {
	if weights == nil {
		return 1
	}
	return weights[i]
}

// ListRankDirect is the insecure baseline: Wyllie pointer jumping with
// direct accesses on the input order — O(n log n) work, O(log² n) span
// under binary forking, data-dependent access pattern.
func ListRankDirect(c *forkjoin.Ctx, sp *mem.Space, succ []int, weights []uint64) []uint64 {
	n := len(succ)
	if n == 0 {
		return nil
	}
	s, r := mem.Alloc[uint64](sp, n), mem.Alloc[uint64](sp, n)
	s1, r1 := mem.Alloc[uint64](sp, n), mem.Alloc[uint64](sp, n)
	forkjoin.ParallelRange(c, 0, n, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			if succ[i] == i {
				s.Set(c, i, uint64(n))
				r.Set(c, i, 0)
			} else {
				s.Set(c, i, uint64(succ[i]))
				r.Set(c, i, weightOf(weights, succ[i]))
			}
		}
	})
	out := make([]uint64, n)
	copy(out, wyllie(c, s, r, s1, r1).Data())
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
	acc := uint64(0)
	for v := tail; v >= 0; v = pred[v] {
		out[v] = acc
		acc += weightOf(weights, v)
	}
	return out
}
