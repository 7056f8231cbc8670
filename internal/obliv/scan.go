package obliv

import (
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
)

// ScanOp computes, in place, the prefix combine of a under op with identity
// id. If inclusive, a[i] becomes op(a[0], ..., a[i]); otherwise a[i]
// becomes op(id, a[0], ..., a[i-1]). op must be associative.
//
// The implementation is the classic two-pass (up-sweep / down-sweep)
// divide-and-conquer with the partial-sum tree stored in *pre-order*
// layout, so each recursive call touches a contiguous region: the caching
// cost is the scan bound O(n/B), the work is O(n), and the span is O(log n)
// — the costs the paper assumes for all-prefix-sums and segmented scans
// (§F, [Ja´J92], [CR12a]). The access pattern depends only on n.
func ScanOp[T any](c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[T], op func(T, T) T, id T, inclusive bool) {
	n := a.Len()
	if n == 0 {
		return
	}
	scanWith(c, a, mem.Alloc[T](sp, 2*n-1), op, id, inclusive)
}

// scanWith is ScanOp over the non-empty a with a caller-held tree of
// 2·len(a)−1 slots, for a caller that scans the same length repeatedly.
func scanWith[T any](c *forkjoin.Ctx, a, tree *mem.Array[T], op func(T, T) T, id T, inclusive bool) {
	n := a.Len()
	// Cancellation checkpoints between the two sweeps: the sweep boundary
	// is a function of n alone, so an abort reveals only which public
	// sweep was running.
	c.Check("scan.sweep")
	scanUp(c, a, tree, 0, 0, n, op)
	c.Check("scan.sweep")
	scanDown(c, a, tree, 0, 0, n, id, op, inclusive)
}

// scanGrain is the subtree size below which the up/down sweeps stop
// forking outside metered mode and recurse serially instead. The sweeps
// used to fork all the way to single leaves — per-element task creation
// that made every segmented scan (GroupBy aggregation, DistributeOrdered's
// rightward propagation, the partition prefix sums) pay two closure
// allocations and a deque round-trip per array element; at 2^20-element
// relations that bookkeeping dominated the actual combine work and was the
// serial-equivalent tail of join_all. A subtree of scanGrain leaves is
// ~2·scanGrain memory touches per task — comfortably past the point where
// stealing pays — while a 2^20 scan still splits 2^11 ways. Metered runs
// keep the fully forked recursion: the measured span must remain the
// O(log n) critical path of the paper's all-prefix-sums bound, and the
// recorded trace (fork events included) must not move when grains are
// retuned.
const scanGrain = 1 << 9

// scanUp fills tree[pos] (pre-order root of [lo,hi)) with the combine of
// a[lo:hi) and returns nothing; subtree of k leaves occupies 2k-1 slots.
func scanUp[T any](c *forkjoin.Ctx, a *mem.Array[T], tree *mem.Array[T], pos, lo, hi int, op func(T, T) T) {
	if hi-lo == 1 {
		tree.Set(c, pos, a.Get(c, lo))
		return
	}
	if av := a.Raw(c); av != nil && hi-lo <= scanGrain {
		scanUpSerial(av, tree.Raw(c), pos, lo, hi, op)
		return
	}
	mid := lo + (hi-lo)/2
	leftPos := pos + 1
	rightPos := pos + 2*(mid-lo)
	c.Fork(
		func(c *forkjoin.Ctx) { scanUp(c, a, tree, leftPos, lo, mid, op) },
		func(c *forkjoin.Ctx) { scanUp(c, a, tree, rightPos, mid, hi, op) },
	)
	l := tree.Get(c, leftPos)
	r := tree.Get(c, rightPos)
	c.Op(1)
	tree.Set(c, pos, op(l, r))
}

// scanUpSerial is scanUp without forks or fork closures, over the raw
// slices: the identical pre-order tree fill (same slots, same combine
// order), recursed by plain calls. Only reached outside metered mode.
func scanUpSerial[T any](a, tree []T, pos, lo, hi int, op func(T, T) T) {
	if hi-lo == 1 {
		tree[pos] = a[lo]
		return
	}
	mid := lo + (hi-lo)/2
	leftPos := pos + 1
	rightPos := pos + 2*(mid-lo)
	scanUpSerial(a, tree, leftPos, lo, mid, op)
	scanUpSerial(a, tree, rightPos, mid, hi, op)
	tree[pos] = op(tree[leftPos], tree[rightPos])
}

func scanDown[T any](c *forkjoin.Ctx, a *mem.Array[T], tree *mem.Array[T], pos, lo, hi int, carry T, op func(T, T) T, inclusive bool) {
	if hi-lo == 1 {
		if inclusive {
			v := tree.Get(c, pos) // original a[lo]
			c.Op(1)
			a.Set(c, lo, op(carry, v))
		} else {
			a.Set(c, lo, carry)
		}
		return
	}
	if av := a.Raw(c); av != nil && hi-lo <= scanGrain {
		scanDownSerial(av, tree.Raw(c), pos, lo, hi, carry, op, inclusive)
		return
	}
	mid := lo + (hi-lo)/2
	leftPos := pos + 1
	rightPos := pos + 2*(mid-lo)
	leftSum := tree.Get(c, leftPos)
	c.Op(1)
	rightCarry := op(carry, leftSum)
	c.Fork(
		func(c *forkjoin.Ctx) { scanDown(c, a, tree, leftPos, lo, mid, carry, op, inclusive) },
		func(c *forkjoin.Ctx) { scanDown(c, a, tree, rightPos, mid, hi, rightCarry, op, inclusive) },
	)
}

// scanDownSerial is scanDown without forks or fork closures, over the raw
// slices; see scanUpSerial.
func scanDownSerial[T any](a, tree []T, pos, lo, hi int, carry T, op func(T, T) T, inclusive bool) {
	if hi-lo == 1 {
		if inclusive {
			a[lo] = op(carry, tree[pos]) // tree[pos] is the original a[lo]
		} else {
			a[lo] = carry
		}
		return
	}
	mid := lo + (hi-lo)/2
	leftPos := pos + 1
	rightPos := pos + 2*(mid-lo)
	rightCarry := op(carry, tree[leftPos])
	scanDownSerial(a, tree, leftPos, lo, mid, carry, op, inclusive)
	scanDownSerial(a, tree, rightPos, mid, hi, rightCarry, op, inclusive)
}

// PrefixSumU64 computes the prefix sum of a in place.
func PrefixSumU64(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[uint64], inclusive bool) {
	ScanOp(c, sp, a, func(x, y uint64) uint64 { return x + y }, 0, inclusive)
}

// PrefixSumU64With is PrefixSumU64 over the non-empty a with a caller-held
// tree of 2·len(a)−1 slots, for a caller that scans one length repeatedly.
func PrefixSumU64With(c *forkjoin.Ctx, a, tree *mem.Array[uint64], inclusive bool) {
	scanWith(c, a, tree, func(x, y uint64) uint64 { return x + y }, 0, inclusive)
}

// SumU64 returns the total of a without modifying it (an up-sweep only).
func SumU64(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[uint64]) uint64 {
	n := a.Len()
	if n == 0 {
		return 0
	}
	return SumU64With(c, a, mem.Alloc[uint64](sp, 2*n-1))
}

// SumU64With is SumU64 over the non-empty a with a caller-held tree of
// 2·len(a)−1 slots, for a caller that sums the same length repeatedly.
func SumU64With(c *forkjoin.Ctx, a, tree *mem.Array[uint64]) uint64 {
	c.Check("scan.sweep")
	scanUp(c, a, tree, 0, 0, a.Len(), func(x, y uint64) uint64 { return x + y })
	return tree.Get(c, 0)
}
