// Package spms provides the *insecure* comparison-sort baselines of
// Table 1's "previous best" column. The genuine SPMS algorithm of Cole and
// Ramachandran [CR17b] attains O(n log n) work, O(log n·log log n) span and
// optimal cache-agnostic caching simultaneously; reproducing it exactly is
// out of scope (README, "Deviations from the paper", 2), so this package supplies two
// baselines that between them cover all three axes:
//
//   - SampleSort: SPMS's recursion shape (n → ~√n buckets per level,
//     log log n levels). Buckets are carved out by a binary tree of
//     stable parallel partitions (prefix-sum based), giving O(n log n)
//     work and O(log² n) span overall — the span-shape baseline (a log
//     factor above true SPMS, noted in the same deviation);
//
//   - MergeSort: cache-agnostic parallel mergesort, optimal O(n log n)
//     work and Θ((n/B)·log(n/M)) caching with O(log³ n) span — the
//     cache-shape baseline.
//
// Both are comparison-based, so either can serve as the post-ORP stage of
// core.SortWith (Theorem 3.2's composition).
package spms

import (
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/prng"
)

// sortLeaf is the size at which recursion switches to serial insertion
// sort in parallel mode; metered runs use leaf 4 so the measured span is
// the span of the fully forked computation (the grain-1 policy).
const sortLeaf = 48

func leafFor(c *forkjoin.Ctx) int {
	if c.Metered() {
		return 4
	}
	return sortLeaf
}

// key orders by Elem.Key with fillers last.
func key(e obliv.Elem) uint64 {
	if e.Kind != obliv.Real {
		return obliv.InfKey
	}
	return e.Key
}

// insertionSort sorts a[lo:hi) serially (instrumented).
func insertionSort(c *forkjoin.Ctx, a *mem.Array[obliv.Elem], lo, hi int) {
	for i := lo + 1; i < hi; i++ {
		e := a.Get(c, i)
		k := key(e)
		j := i - 1
		for j >= lo {
			f := a.Get(c, j)
			c.Op(1)
			if key(f) <= k {
				break
			}
			a.Set(c, j+1, f)
			j--
		}
		a.Set(c, j+1, e)
	}
}

// SampleSort sorts a in place. Each level samples ~3√n elements, sorts the
// sample recursively, picks √n−1 pivots, partitions the array into buckets
// with a binary tree of stable parallel partitions, and recurses on the
// buckets in parallel. seed drives pivot sampling.
func SampleSort(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[obliv.Elem], seed uint64) {
	n := a.Len()
	if n <= 1 {
		return
	}
	scratch := mem.Alloc[obliv.Elem](sp, n)
	sampleSortRec(c, sp, a, scratch, 0, n, prng.Mix64(seed), 0)
}

// sampleSortRec sorts a[lo:lo+n); scratch parallels a (same length, same
// relative offsets).
func sampleSortRec(c *forkjoin.Ctx, sp *mem.Space, a, scratch *mem.Array[obliv.Elem], lo, n int, seed uint64, depth int) {
	if n <= leafFor(c) {
		insertionSort(c, a, lo, lo+n)
		return
	}
	// For small ranges — or in the (never observed) event of pathological
	// pivot luck — fall back to mergesort, which keeps the span polylog.
	if n <= 64 || depth > 12 {
		mergeSortRec(c, a, scratch, lo, n)
		return
	}
	q := 2
	for q*q < n {
		q++
	}

	// Sample with a small oversampling factor and sort the sample
	// recursively. Capping the sample at n/2 guarantees the sample
	// recursion strictly shrinks.
	sn := 3*q - 1
	if sn > n/2 {
		sn = n / 2
	}
	src := prng.New(seed)
	idx := make([]int, sn) // drawn serially: Source is not goroutine-safe
	for i := range idx {
		idx[i] = src.Intn(n)
	}
	samp := mem.Alloc[obliv.Elem](sp, sn)
	forkjoin.ParallelFor(c, 0, sn, 0, func(c *forkjoin.Ctx, i int) {
		samp.Set(c, i, a.Get(c, lo+idx[i]))
	})
	sampScratch := mem.Alloc[obliv.Elem](sp, sn)
	sampleSortRec(c, sp, samp, sampScratch, 0, sn, prng.Mix64(seed+1), depth+1)

	pivots := mem.Alloc[uint64](sp, q-1)
	forkjoin.ParallelFor(c, 0, q-1, 0, func(c *forkjoin.Ctx, t int) {
		pivots.Set(c, t, key(samp.Get(c, (t+1)*sn/q)))
	})

	// Partition into q buckets via a binary tree of stable partitions.
	bounds := make([]int, q+1)
	bounds[0], bounds[q] = 0, n
	partitionByPivots(c, sp, a, scratch, lo, 0, n, pivots, 0, q-2, bounds)

	// Recurse on buckets.
	forkjoin.ParallelFor(c, 0, q, 1, func(c *forkjoin.Ctx, b int) {
		sz := bounds[b+1] - bounds[b]
		if sz > 1 {
			sampleSortRec(c, sp, a, scratch, lo+bounds[b], sz, prng.Mix64(seed+uint64(b)+2), depth+1)
		}
	})
}

// partitionByPivots rearranges a[base+off : base+off+n) so that elements
// are grouped by the buckets defined by pivots[pLo..pHi] (bucket t holds
// keys in (pivot[t-1], pivot[t]]); it records each bucket boundary in
// bounds (offsets relative to base). Classic divide and conquer on the
// pivot range: split by the middle pivot with one stable parallel
// partition, recurse on both sides in parallel. O(n·log q) work,
// O(log q · log n) span per sample-sort level.
func partitionByPivots(c *forkjoin.Ctx, sp *mem.Space, a, scratch *mem.Array[obliv.Elem], base, off, n int, pivots *mem.Array[uint64], pLo, pHi int, bounds []int) {
	if pLo > pHi {
		return
	}
	mid := (pLo + pHi) / 2
	pv := pivots.Get(c, mid)
	split := stablePartition(c, sp, a, scratch, base+off, n, pv)
	bounds[mid+1] = off + split
	c.Fork(
		func(c *forkjoin.Ctx) {
			partitionByPivots(c, sp, a, scratch, base, off, split, pivots, pLo, mid-1, bounds)
		},
		func(c *forkjoin.Ctx) {
			partitionByPivots(c, sp, a, scratch, base, off+split, n-split, pivots, mid+1, pHi, bounds)
		},
	)
}

// stablePartition stably moves elements with key <= pv to the front of
// a[lo:lo+n) and returns their count. Prefix-sum based: O(n) work,
// O(log n) span.
func stablePartition(c *forkjoin.Ctx, sp *mem.Space, a, scratch *mem.Array[obliv.Elem], lo, n int, pv uint64) int {
	if n == 0 {
		return 0
	}
	pos := mem.Alloc[uint64](sp, n)
	forkjoin.ParallelRange(c, 0, n, 0, func(c *forkjoin.Ctx, from, to int) {
		for i := from; i < to; i++ {
			v := uint64(0)
			c.Op(1)
			if key(a.Get(c, lo+i)) <= pv {
				v = 1
			}
			pos.Set(c, i, v)
		}
	})
	obliv.PrefixSumU64(c, sp, pos, true)
	total := int(pos.Get(c, n-1))
	forkjoin.ParallelRange(c, 0, n, 0, func(c *forkjoin.Ctx, from, to int) {
		for i := from; i < to; i++ {
			e := a.Get(c, lo+i)
			rank := int(pos.Get(c, i))
			c.Op(1)
			if key(e) <= pv {
				scratch.Set(c, lo+rank-1, e)
			} else {
				scratch.Set(c, lo+total+(i-rank), e)
			}
		}
	})
	mem.CopyPar(c, a, lo, scratch, lo, n)
	return total
}

// MergeSort sorts a in place with cache-agnostic parallel mergesort:
// recursive halves in parallel, merged by divide-and-conquer parallel
// merge (median split + binary search). Work O(n log n), span O(log³ n),
// caching Θ((n/B)·log₂(n/M)) — cache-agnostic.
func MergeSort(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[obliv.Elem]) {
	n := a.Len()
	if n <= 1 {
		return
	}
	scratch := mem.Alloc[obliv.Elem](sp, n)
	mergeSortRec(c, a, scratch, 0, n)
}

func mergeSortRec(c *forkjoin.Ctx, a, scratch *mem.Array[obliv.Elem], lo, n int) {
	if n <= leafFor(c) {
		insertionSort(c, a, lo, lo+n)
		return
	}
	half := n / 2
	c.Fork(
		func(c *forkjoin.Ctx) { mergeSortRec(c, a, scratch, lo, half) },
		func(c *forkjoin.Ctx) { mergeSortRec(c, a, scratch, lo+half, n-half) },
	)
	parMerge(c, a, scratch, lo, lo+half, lo+half, lo+n, lo)
	mem.CopyPar(c, a, lo, scratch, lo, n)
}

// parMerge merges a[alo:ahi) and a[blo:bhi) into scratch starting at out.
func parMerge(c *forkjoin.Ctx, a, scratch *mem.Array[obliv.Elem], alo, ahi, blo, bhi, out int) {
	an, bn := ahi-alo, bhi-blo
	if an+bn <= 2*leafFor(c) {
		i, j, o := alo, blo, out
		for i < ahi && j < bhi {
			x, y := a.Get(c, i), a.Get(c, j)
			c.Op(1)
			if key(x) <= key(y) {
				scratch.Set(c, o, x)
				i++
			} else {
				scratch.Set(c, o, y)
				j++
			}
			o++
		}
		for i < ahi {
			scratch.Set(c, o, a.Get(c, i))
			i, o = i+1, o+1
		}
		for j < bhi {
			scratch.Set(c, o, a.Get(c, j))
			j, o = j+1, o+1
		}
		return
	}
	// Split on the median of the larger run; binary search in the other.
	if an < bn {
		alo, ahi, blo, bhi = blo, bhi, alo, ahi
	}
	amid := alo + (ahi-alo)/2
	pivot := key(a.Get(c, amid))
	bmid := lowerBound(c, a, blo, bhi, pivot)
	leftOut := out
	rightOut := out + (amid - alo) + (bmid - blo)
	c.Fork(
		func(c *forkjoin.Ctx) { parMerge(c, a, scratch, alo, amid, blo, bmid, leftOut) },
		func(c *forkjoin.Ctx) { parMerge(c, a, scratch, amid, ahi, bmid, bhi, rightOut) },
	)
}

// lowerBound returns the first index in a[lo:hi) with key >= v.
func lowerBound(c *forkjoin.Ctx, a *mem.Array[obliv.Elem], lo, hi int, v uint64) int {
	for lo < hi {
		mid := (lo + hi) / 2
		c.Op(1)
		if key(a.Get(c, mid)) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// InsecureSampleSort adapts SampleSort to core's InsecureSort signature.
func InsecureSampleSort(seed uint64) func(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[obliv.Elem]) {
	return func(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[obliv.Elem]) {
		SampleSort(c, sp, a, seed)
	}
}

// InsecureMergeSort adapts MergeSort to core's InsecureSort signature.
func InsecureMergeSort() func(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[obliv.Elem]) {
	return func(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[obliv.Elem]) {
		MergeSort(c, sp, a)
	}
}
