package bitonic

import (
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/matrix"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
)

// DefaultLeaf is the subproblem size below which the recursion switches to
// the serial iterative network outside metered mode. It is sized to a cache
// block of work, not to the cost model: a leaf is where the raw block
// comparator runs straight-line over ~56 KiB of elements and key words
// (L1/L2-resident), and everything above it — forks, transposes, their
// closures — is bookkeeping a stolen task has to pay for. Measured with
// BenchmarkBitonicLeaf (2^15 elements): the sort flattens out between 512
// and 2048 (leaf 32 is ~1.5× slower, 4096 gains a few percent and halves the
// tasks a 2^13 sort offers a pool); 1024 keeps a 2^13-element sort 8-way
// splittable. Metered runs ignore it and fork down to leaf 2 — the
// recursion is cache-agnostic either way and the trace never moves with
// this constant (TestMeteredIgnoresLeafConstant).
const DefaultLeaf = 1024

// SortCA is the paper's cache-agnostic, binary fork-join BITONIC-SORT
// (§E.1.1): recursively sort the two halves in opposite directions, then
// BITONIC-MERGE. It sorts a[lo:lo+n]; scratch must have length >= n and
// not alias it. n must be a power of two.
//
// Costs (Theorem E.1): O(n log² n) work, O(log² n · log log n) span,
// O((n/B)·log_M n·log(n/M)) cache misses for n > M >= B².
func SortCA(c *forkjoin.Ctx, a, scratch *mem.Array[obliv.Elem], lo, n int, asc bool, leaf int, key func(obliv.Elem) uint64) {
	if !obliv.IsPow2(n) {
		panic("bitonic: n must be a power of two")
	}
	if leaf < 2 {
		leaf = DefaultLeaf
	}
	if c.Metered() {
		// Measure the span of the fully forked network (grain-1 policy).
		leaf = 2
	}
	if n == 1 {
		return
	}
	sortCARec(c, a.View(lo, n), scratch.View(0, n), 0, n, asc, leaf, key)
}

// sortCARec operates on buf with scr as an equal-shape scratch; lo is
// relative to the start of the top-level range, valid in both buffers.
func sortCARec(c *forkjoin.Ctx, buf, scr *mem.Array[obliv.Elem], lo, n int, asc bool, leaf int, key func(obliv.Elem) uint64) {
	if n == 1 {
		return
	}
	if n <= leaf {
		sortSerial(c, buf, lo, n, asc, key)
		return
	}
	half := n / 2
	c.Fork(
		func(c *forkjoin.Ctx) { sortCARec(c, buf, scr, lo, half, true, leaf, key) },
		func(c *forkjoin.Ctx) { sortCARec(c, buf, scr, lo+half, half, false, leaf, key) },
	)
	mergeCARec(c, buf, scr, lo, n, asc, leaf, key)
}

// MergeCA is the paper's cache-agnostic BITONIC-MERGE (§E.1.2) applied to
// the bitonic sequence a[lo:lo+m]; scratch must have length >= m and not
// alias a. m must be a power of two.
//
// The m-input reverse butterfly is evaluated as
//
//	transpose (m1×m2 → m2×m1) → merge the m2 rows of length m1
//	→ transpose back → merge the m1 rows of length m2,
//
// with m1 = 2^⌈k/2⌉, m2 = m/m1. The recursion structure mirrors the FFT of
// Frigo et al. [FLPR99].
func MergeCA(c *forkjoin.Ctx, a, scratch *mem.Array[obliv.Elem], lo, m int, asc bool, leaf int, key func(obliv.Elem) uint64) {
	if !obliv.IsPow2(m) {
		panic("bitonic: m must be a power of two")
	}
	if leaf < 2 {
		leaf = DefaultLeaf
	}
	if c.Metered() {
		leaf = 2
	}
	mergeCARec(c, a.View(lo, m), scratch.View(0, m), 0, m, asc, leaf, key)
}

func mergeCARec(c *forkjoin.Ctx, buf, scr *mem.Array[obliv.Elem], lo, m int, asc bool, leaf int, key func(obliv.Elem) uint64) {
	if m <= leaf {
		mergeSerial(c, buf, lo, m, asc, key)
		return
	}
	k := obliv.Log2(m)
	k1 := (k + 1) / 2
	m1 := 1 << k1
	m2 := m / m1

	bv := buf.View(lo, m)
	sv := scr.View(lo, m)

	// Phase 1: the first k1 butterfly layers (distances m/2 .. m2) become
	// full merges of length m1 on the columns, made contiguous by a
	// transpose of the m1×m2 row-major view.
	matrix.Transpose(c, sv, bv, m1, m2)
	forkjoin.ParallelFor(c, 0, m2, 1, func(c *forkjoin.Ctx, i int) {
		mergeCARec(c, scr, buf, lo+i*m1, m1, asc, leaf, key)
	})

	// Phase 2: transpose back and run the remaining k-k1 layers as merges
	// of length m2 on the now-contiguous rows.
	matrix.Transpose(c, bv, sv, m2, m1)
	forkjoin.ParallelFor(c, 0, m1, 1, func(c *forkjoin.Ctx, i int) {
		mergeCARec(c, buf, scr, lo+i*m2, m2, asc, leaf, key)
	})
}
