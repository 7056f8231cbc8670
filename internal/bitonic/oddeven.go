package bitonic

import (
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
)

// SortOddEven runs Batcher's odd–even merge sorting network over
// a[lo:lo+n], ascending. n must be a power of two. Like bitonic it uses
// O(n log² n) comparators with a data-independent schedule; unlike bitonic
// every comparator points the same way, which makes it the second
// convenient practical stand-in for the AKS network (DESIGN.md §5). Like
// SortIterative it runs in the Theorem E.1 ablation only.
//
// Step (p, k) compares t with t+k for every t >= k mod p with bit k of
// t − k mod p clear, t and t+k in the same block of 2p. Counted from
// k mod p that is the first p − k mod p comparators of a butterfly of
// distance k in each block of 2p: one obliv.Layer on the key-closure
// comparator over the view offset by k mod p.
func SortOddEven(c *forkjoin.Ctx, a *mem.Array[obliv.Elem], lo, n int, key func(obliv.Elem) uint64) {
	if !obliv.IsPow2(n) {
		panic("bitonic: n must be a power of two")
	}
	for p := 1; p < n; p <<= 1 {
		for k := p; k >= 1; k >>= 1 {
			off := k % p
			kern := obliv.NewCexKernelFunc(c, a.View(lo+off, n-off), key)
			obliv.Layer(c, kern, 0, n/(2*p), 2*p, p-off, k, false)
		}
	}
}
