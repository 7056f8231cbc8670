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
//     Its one recursion takes either of two comparators: a cached key
//     schedule (the network of every sorter, CacheAgnostic) or a key
//     closure, the paper's cost model, which only the Theorem E.1 ablation
//     runs.
//
//   - Batcher's odd–even merge network (SortOddEven), the practical
//     stand-in for AKS (see DESIGN.md deviation 1).
//
// Both are data-oblivious: the comparator schedule depends only on n.
package bitonic

import (
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
)

// SortIterative runs the classic iterative bitonic network over
// a[lo:lo+n], ascending. n must be a power of two. It is obliv.Stages(n, n)
// on the key-closure comparator: each layer's comparators are forked with
// one binary tree (the naive parallelization). It is the Theorem E.1
// ablation's baseline, not a sorter.
func SortIterative(c *forkjoin.Ctx, a *mem.Array[obliv.Elem], lo, n int, key func(obliv.Elem) uint64) {
	if !obliv.IsPow2(n) {
		panic("bitonic: n must be a power of two")
	}
	obliv.Stages(c, obliv.NewCexKernelFunc(c, a.View(lo, n), key), n, n)
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
