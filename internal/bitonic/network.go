// Package bitonic implements two data-independent sorting networks in the
// binary fork-join model:
//
//   - Batcher's bitonic network [Bat68], evaluated two ways. Naive
//     (SortIterative) forks the comparators of each layer — O(n log² n)
//     work, O(log³ n) span, O((n/B)·log² n) cache misses, the baseline the
//     paper's §E.1 improves on. CacheAgnostic (SortCAKeyed, SortCAPlanes)
//     is the paper's BITONIC-SORT / BITONIC-MERGE (§E.1, Theorem E.1) with
//     the two-transpose recursive merge — same work, O(log² n · log log n)
//     span, O((n/B)·log_M n·log(n/M)) cache misses. Its one recursion
//     sorts elements by a cached key schedule (the network of every
//     sorter, CacheAgnostic) or word planes alone (the PRAM layer's
//     recorded sorts and, over one key plane, the Theorem E.1 ablation).
//
//   - Batcher's odd–even merge network (SortOddEven), the practical
//     stand-in for AKS (README, "Deviations from the paper", 1).
//
// Both are data-oblivious: the comparator schedule depends only on n. The
// Theorem E.1 ablation runs all three networks over one key plane, the
// paper's cost model, in which a compare-exchange touches one word per
// side.
package bitonic

import (
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/obliv"
)

// SortIterative runs the classic iterative bitonic network over the word
// planes ks[lo:lo+n), ascending by plane 0 (any further plane carried).
// n must be a power of two. It is obliv.Stages(n, n) on the plane
// comparator: each layer's comparators are forked with one binary tree
// (the naive parallelization). It is the Theorem E.1 ablation's baseline,
// not a sorter.
func SortIterative(c *forkjoin.Ctx, ks *obliv.KeySchedule, lo, n int) {
	if !obliv.IsPow2(n) {
		panic("bitonic: n must be a power of two")
	}
	obliv.Stages(c, obliv.NewCexKernelPlanes(c, ks.View(lo, n), 1, nil), n, n)
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
