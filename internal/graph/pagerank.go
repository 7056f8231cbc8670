package graph

import (
	"oblivmc/internal/bitonic"
	"oblivmc/internal/faultinject"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/pram"
)

// PageRankScale is the fixed-point unit of PageRank ranks: a rank of
// PageRankScale is the stationary weight 1.0.
const PageRankScale uint64 = 1 << 20

// PageRankOblivious runs iters rounds of PageRank over the directed graph
// of edges (U → V; weights ignored) on n vertices in exact, wrapping
// uint64 fixed point: every rank starts at PageRankScale, and a round sets
// rank(v) = PageRankScale·15/100 + Σ_{(u,v)} share(u), where share(u) =
// (rank(u)·85/100) / outdeg(u), or 0 for a vertex with no out-edges, whose
// mass is lost. The division by a secret degree is obliv.DivU64.
//
// The edges never change, so their work space is built once: one recorded
// plane sort groups them by destination, each vertex's in-edges followed by
// a sentinel, with the source carried, and one pram.Gatherer on the carried
// sources reads share(src) in that order (a sentinel carries the
// out-of-range address n and reads 0). A round is a share pass, that
// gather, an inclusive prefix sum, an un-sort that takes every sentinel's
// prefix home, and a pass subtracting consecutive sentinels' prefixes. The
// out-degrees are the same recipe grouped by source with a unit carried.
// Setup runs 3 sorts and 1 un-sort, a round no sort and 2 un-sorts, all on
// the bitonic network; the access pattern is a function of (n, len(edges),
// iters) and the executor kind alone.
func PageRankOblivious(c *forkjoin.Ctx, sp *mem.Space, n int, edges []WEdge, iters int) []uint64 {
	m := len(edges)
	w := obliv.NextPow2(n + m)
	// The grouping's key and carried planes (edge e in slot e, vertex v's
	// sentinel in slot m+v, padding after), scratch, the record and the
	// prefix sum's tree.
	ws, scr := obliv.AllocKeySchedule(sp, w, 2), obliv.AllocKeySchedule(sp, w, 2)
	uscr, tree := obliv.AllocKeySchedule(sp, w, 1), mem.Alloc[uint64](sp, 2*w-1)
	rec := mem.Alloc[uint64](sp, bitonic.RecordWords(c, w, 0))

	// group record-sorts the entries by vertex: edge e keyed by its
	// destination (byDst) or source, shifted left, carrying its source or
	// 1; sentinel v keyed v<<1|1 and the padding InfKey, carrying sentinel.
	group := func(byDst bool, sentinel uint64) {
		forkjoin.ParallelRange(c, 0, w, 0, func(c *forkjoin.Ctx, lo, hi int) {
			for i := lo; i < hi; i++ {
				key, x := obliv.InfKey, sentinel
				switch {
				case i < m && byDst:
					key, x = uint64(edges[i].V)<<1, uint64(edges[i].U)
				case i < m:
					key, x = uint64(edges[i].U)<<1, 1
				case i < m+n:
					key = uint64(i-m)<<1 | 1
				}
				ws.Plane(0).Set(c, i, key)
				ws.Plane(1).Set(c, i, x)
			}
		})
		bitonic.SortRecorded(c, ws, scr, 1, rec, w)
	}
	// sums sets out[v] = base + the sum of pre (w words in the last
	// grouping's order, overwritten) over v's edges.
	sums := func(pre, out *mem.Array[uint64], base uint64) {
		obliv.PrefixSumU64With(c, pre, tree, true)
		bitonic.Unsort(c, obliv.NewKeySchedule(pre, w, 1), uscr, rec, w)
		forkjoin.ParallelRange(c, 0, n, 0, func(c *forkjoin.Ctx, lo, hi int) {
			for v := lo; v < hi; v++ {
				s := pre.Get(c, m+v)
				if v > 0 {
					s -= pre.Get(c, m+v-1)
				}
				c.Op(1)
				out.Set(c, v, base+s)
			}
		})
	}

	deg, rank, share := mem.Alloc[uint64](sp, n), mem.Alloc[uint64](sp, n), mem.Alloc[uint64](sp, n)
	group(false, 0)
	sums(ws.Plane(1), deg, 0)
	group(true, uint64(n))
	srcs := pram.NewGatherer(c, sp, n, ws.Plane(1), nil)

	mem.Fill(c, rank, PageRankScale)
	for range iters {
		// A cancellation checkpoint: the round index is public.
		c.Check("graph.round")
		faultinject.Hit("graph.round")
		forkjoin.ParallelRange(c, 0, n, 0, func(c *forkjoin.Ctx, lo, hi int) {
			for v := lo; v < hi; v++ {
				r, d := rank.Get(c, v), deg.Get(c, v)
				c.Op(1)
				share.Set(c, v, obliv.DivU64(r*85/100, d))
			}
		})
		sums(srcs.Values(c, sp, share), rank, PageRankScale*15/100)
	}
	return rank.Data()
}
