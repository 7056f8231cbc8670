package bitonic

import (
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/obliv"
)

// SortOddEven runs Batcher's odd–even merge sorting network over the word
// planes ks[lo:lo+n), ascending by plane 0 (any further plane carried).
// n must be a power of two. Like bitonic it uses O(n log² n) comparators
// with a data-independent schedule; unlike bitonic every comparator points
// the same way, which makes it the second convenient practical stand-in
// for the AKS network (README, "Deviations from the paper", 1). Like
// SortIterative it runs in the Theorem E.1 ablation only.
//
// Step (p, k) compares t with t+k for every t >= k mod p with bit k of
// t − k mod p clear, t and t+k in the same block of 2p. Counted from
// k mod p that is the first p − k mod p comparators of a butterfly of
// distance k in each block of 2p: one obliv.Layer on the plane comparator
// over the view offset by k mod p.
func SortOddEven(c *forkjoin.Ctx, ks *obliv.KeySchedule, lo, n int) {
	if !obliv.IsPow2(n) {
		panic("bitonic: n must be a power of two")
	}
	for p := 1; p < n; p <<= 1 {
		for k := p; k >= 1; k >>= 1 {
			off := k % p
			kern := obliv.NewCexKernelPlanes(c, ks.View(lo+off, n-off), 1, nil)
			obliv.Layer(c, kern, 0, n/(2*p), 2*p, p-off, k, false)
		}
	}
}
