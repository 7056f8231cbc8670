// Keyed (key-schedule) variant of the cache-agnostic network — the one
// production network; the Naive and OddEven ablation networks stay
// closure-only. The comparator schedule is identical to the closure-keyed
// network — same layers, same positions, same directions — but each
// comparator reads the cached key words built by obliv.BuildKeySchedule
// instead of invoking the key closure twice. The key schedule moves in
// lockstep with the element array (including through the cache-agnostic
// merge's transposes, applied plane by plane), so the resulting permutation
// is exactly the one the closure network produces.
//
// The network is width-generic: a schedule of W words per element widens
// each comparator's fixed read/write set and nothing else — the comparator
// positions and directions are functions of n alone, so the trace shape is
// the same at every width, and width 1 runs the identical single-word
// comparator the pre-wide-key networks ran.
package bitonic

import (
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/matrix"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
)

// mergeSerialKeyed and sortSerialKeyed are the serial leaves in block form:
// a leaf is a fixed sequence of butterfly layers, each handed whole to the
// block comparator, which decides once per leaf whether it runs per access
// or over raw slices and issues the comparators of the per-pair loop
// `for i { if i&j == 0 { cex(i, i|j, dir) } }` in the same order.
func mergeSerialKeyed(c *forkjoin.Ctx, a *mem.Array[obliv.Elem], ks *obliv.KeySchedule, lo, m int, asc bool) {
	kern := obliv.NewCexKernel(c, a, ks)
	for j := m >> 1; j > 0; j >>= 1 {
		kern.Layer(lo, m, j, 0, asc)
	}
}

// sortSerialKeyed is the network the recursion above it unrolls to, layer
// by layer: sorted sequences of length k < n alternate ascending and
// descending whatever asc is (sortCAKeyedRec sorts its first half ascending
// and its second descending), and only the final merge runs in direction
// asc. A leaf therefore leaves the same permutation — ties included — as
// the fully forked leaf-2 network a metered run executes.
func sortSerialKeyed(c *forkjoin.Ctx, a *mem.Array[obliv.Elem], ks *obliv.KeySchedule, lo, n int, asc bool) {
	kern := obliv.NewCexKernel(c, a, ks)
	for k := 2; k < n; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			kern.Layer(lo, n, j, k, true)
		}
	}
	for j := n >> 1; j > 0; j >>= 1 {
		kern.Layer(lo, n, j, 0, asc)
	}
}

// transposeKeyed transposes every plane of src into dst (the schedules move
// through the cache-agnostic merge in lockstep with the elements).
func transposeKeyed(c *forkjoin.Ctx, dst, src *obliv.KeySchedule, rows, cols int) {
	for p := 0; p < src.Width(); p++ {
		matrix.Transpose(c, dst.Plane(p), src.Plane(p), rows, cols)
	}
}

// SortCAKeyed is the cache-agnostic BITONIC-SORT (§E.1.1) against a cached
// key schedule: scratch must have length >= n, kscr must match ks's width
// and cover >= n elements, and neither may alias a or ks. ks is indexed
// identically to a (ks[lo:lo+n) cache the keys of a[lo:lo+n)). n must be a
// power of two.
func SortCAKeyed(c *forkjoin.Ctx, a, scratch *mem.Array[obliv.Elem], ks, kscr *obliv.KeySchedule, lo, n int, asc bool, leaf int) {
	if !obliv.IsPow2(n) {
		panic("bitonic: n must be a power of two")
	}
	if leaf < 2 {
		leaf = DefaultLeaf
	}
	if c.Metered() {
		// Grain-1 policy: measure the span of the fully forked network.
		leaf = 2
	}
	if n == 1 {
		return
	}
	sortCAKeyedRec(c, a.View(lo, n), scratch.View(0, n), ks.View(lo, n), kscr.View(0, n), 0, n, asc, leaf)
}

func sortCAKeyedRec(c *forkjoin.Ctx, buf, scr *mem.Array[obliv.Elem], kbuf, kscr *obliv.KeySchedule, lo, n int, asc bool, leaf int) {
	if n == 1 {
		return
	}
	// The recursion structure is a function of (n, leaf) alone — both
	// public — so a cancellation at a recursion entry reveals only how far
	// the fixed schedule progressed.
	c.Check("bitonic.layer")
	if n <= leaf {
		sortSerialKeyed(c, buf, kbuf, lo, n, asc)
		return
	}
	half := n / 2
	c.Fork(
		func(c *forkjoin.Ctx) { sortCAKeyedRec(c, buf, scr, kbuf, kscr, lo, half, true, leaf) },
		func(c *forkjoin.Ctx) { sortCAKeyedRec(c, buf, scr, kbuf, kscr, lo+half, half, false, leaf) },
	)
	mergeCAKeyedRec(c, buf, scr, kbuf, kscr, lo, n, asc, leaf)
}

func mergeCAKeyedRec(c *forkjoin.Ctx, buf, scr *mem.Array[obliv.Elem], kbuf, kscr *obliv.KeySchedule, lo, m int, asc bool, leaf int) {
	if m <= leaf {
		mergeSerialKeyed(c, buf, kbuf, lo, m, asc)
		return
	}
	k := obliv.Log2(m)
	k1 := (k + 1) / 2
	m1 := 1 << k1
	m2 := m / m1

	bv, sv := buf.View(lo, m), scr.View(lo, m)
	kbv, ksv := kbuf.View(lo, m), kscr.View(lo, m)

	// Phase 1: transpose the m1×m2 row-major view (elements and cached keys
	// in lockstep) and run the first k1 butterfly layers as contiguous
	// merges of length m1.
	matrix.Transpose(c, sv, bv, m1, m2)
	transposeKeyed(c, ksv, kbv, m1, m2)
	forkjoin.ParallelFor(c, 0, m2, 1, func(c *forkjoin.Ctx, i int) {
		mergeCAKeyedRec(c, scr, buf, kscr, kbuf, lo+i*m1, m1, asc, leaf)
	})

	// Phase 2: transpose back and run the remaining k-k1 layers as merges
	// of length m2 on the now-contiguous rows.
	matrix.Transpose(c, bv, sv, m2, m1)
	transposeKeyed(c, kbv, ksv, m2, m1)
	forkjoin.ParallelFor(c, 0, m1, 1, func(c *forkjoin.Ctx, i int) {
		mergeCAKeyedRec(c, buf, scr, kbuf, kscr, lo+i*m2, m2, asc, leaf)
	})
}
