// Package bitonic implements two data-independent sorting networks in the
// binary fork-join model:
//
//   - Batcher's bitonic network [Bat68], evaluated two ways. Naive
//     (SortIterative) forks the comparators of each layer — O(n log² n)
//     work, O(log³ n) span, O((n/B)·log² n) cache misses, the baseline the
//     paper's §E.1 improves on. CacheAgnostic (SortCA, MergeCA,
//     SortCAKeyed) is the paper's BITONIC-SORT / BITONIC-MERGE (§E.1,
//     Theorem E.1) with the two-transpose recursive merge — same work,
//     O(log² n · log log n) span, O((n/B)·log_M n·log(n/M)) cache misses.
//     Its one recursion takes either of two comparators: a key closure
//     (the paper reproduction's obliv.Sorter seam) or a cached key
//     schedule (the production network).
//
//   - Batcher's odd–even merge network (OddEven), the practical stand-in
//     for AKS (see DESIGN.md deviation 1).
//
// Both are data-oblivious: the comparator schedule depends only on n.
package bitonic

import (
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
)

// SortIterative runs the classic iterative bitonic network over
// a[lo:lo+n], ascending if asc. n must be a power of two. Each layer's
// comparators are forked with a binary tree (the naive parallelization).
func SortIterative(c *forkjoin.Ctx, a *mem.Array[obliv.Elem], lo, n int, asc bool, key func(obliv.Elem) uint64) {
	if !obliv.IsPow2(n) {
		panic("bitonic: n must be a power of two")
	}
	for k := 2; k <= n; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			layer(c, a, lo, n, k, j, asc, key)
		}
	}
}

// layerGrain is the leaf width of a comparator layer's fork tree: each
// leaf runs layerGrain/2 compare-exchanges (half the indices skip), enough
// work per task that an n/2-wide layer splits without drowning in deque
// traffic. Metered runs ignore it (grain is forced to 1 there).
const layerGrain = 1 << 8

// layer applies one butterfly layer: compare i with i|j for all i with
// bit j clear; direction flips with bit k of i (global direction asc).
func layer(c *forkjoin.Ctx, a *mem.Array[obliv.Elem], lo, n, k, j int, asc bool, key func(obliv.Elem) uint64) {
	forkjoin.ParallelRange(c, 0, n, layerGrain, func(c *forkjoin.Ctx, from, to int) {
		for i := from; i < to; i++ {
			if i&j != 0 {
				continue
			}
			dir := (i&k == 0) == asc
			obliv.CompareExchange(c, a, lo+i, lo+(i|j), dir, key)
		}
	})
}

// Comparator is one compare-exchange of the network: positions I < J,
// ascending if Asc (arrow pointing to J in Figure 1's convention).
type Comparator struct {
	I, J int
	Asc  bool
}

// Schedule returns the bitonic network for n inputs as a list of layers,
// each a list of comparators — the structure drawn in Figure 1 of the
// paper (n=16). n must be a power of two.
func Schedule(n int) [][]Comparator {
	if !obliv.IsPow2(n) {
		panic("bitonic: n must be a power of two")
	}
	var layers [][]Comparator
	for k := 2; k <= n; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			var l []Comparator
			for i := 0; i < n; i++ {
				if i&j == 0 {
					l = append(l, Comparator{I: i, J: i | j, Asc: i&k == 0})
				}
			}
			layers = append(layers, l)
		}
	}
	return layers
}
