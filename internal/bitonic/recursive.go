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

// network is the state of one run of the cache-agnostic recursion: the
// element array and its scratch (the merge's transposes move the elements
// from one to the other and back), and the comparator's key. That key is
// either a cached key schedule with its scratch, which move through every
// transpose in lockstep with the elements — the production network, each
// comparator reading cached key words (obliv.BuildKeySchedule) — or a key
// closure invoked twice per comparator, the paper's cost model and the
// obliv.Sorter seam of the reproduction. The comparator schedule is the
// same either way: same layers, positions and directions, all functions of
// n alone, so the two sorts leave the same permutation, and a schedule of W
// words per element widens each comparator's fixed read/write set and
// nothing else. lo offsets are relative to the start of the top-level
// range and valid in both buffers.
type network struct {
	a, scr   *mem.Array[obliv.Elem]
	ks, kscr *obliv.KeySchedule
	key      func(obliv.Elem) uint64
	leaf     int
}

// newNetwork views a[lo:lo+n] and the first n elements of scratch (and of
// ks, kscr if keyed) as a network's buffers, with the leaf size resolved:
// DefaultLeaf below 2, and 2 under the metered executor, which measures the
// span of the fully forked network (grain-1 policy).
func newNetwork(c *forkjoin.Ctx, a, scratch *mem.Array[obliv.Elem], ks, kscr *obliv.KeySchedule, key func(obliv.Elem) uint64, lo, n, leaf int) network {
	if !obliv.IsPow2(n) {
		panic("bitonic: n must be a power of two")
	}
	if leaf < 2 {
		leaf = DefaultLeaf
	}
	if c.Metered() {
		leaf = 2
	}
	nw := network{a: a.View(lo, n), scr: scratch.View(0, n), key: key, leaf: leaf}
	if ks != nil {
		nw.ks, nw.kscr = ks.View(lo, n), kscr.View(0, n)
	}
	return nw
}

// SortCA is the paper's cache-agnostic, binary fork-join BITONIC-SORT
// (§E.1.1): recursively sort the two halves in opposite directions, then
// BITONIC-MERGE. It sorts a[lo:lo+n] by key; scratch must have length >= n
// and not alias it. n must be a power of two.
//
// Costs (Theorem E.1): O(n log² n) work, O(log² n · log log n) span,
// O((n/B)·log_M n·log(n/M)) cache misses for n > M >= B².
func SortCA(c *forkjoin.Ctx, a, scratch *mem.Array[obliv.Elem], lo, n int, asc bool, leaf int, key func(obliv.Elem) uint64) {
	newNetwork(c, a, scratch, nil, nil, key, lo, n, leaf).sort(c, 0, n, asc)
}

// SortCAKeyed is SortCA against a cached key schedule: kscr must match ks's
// width and cover >= n elements, and neither may alias a or ks. ks is
// indexed identically to a (ks[lo:lo+n) cache the keys of a[lo:lo+n)).
func SortCAKeyed(c *forkjoin.Ctx, a, scratch *mem.Array[obliv.Elem], ks, kscr *obliv.KeySchedule, lo, n int, asc bool, leaf int) {
	newNetwork(c, a, scratch, ks, kscr, nil, lo, n, leaf).sort(c, 0, n, asc)
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
	newNetwork(c, a, scratch, nil, nil, key, lo, m, leaf).merge(c, 0, m, asc)
}

// kernel is the block comparator of the network's key, bound to its
// element array and to the executor behind c.
func (nw network) kernel(c *forkjoin.Ctx) obliv.CexKernel {
	if nw.key != nil {
		return obliv.NewCexKernelFunc(c, nw.a, nw.key)
	}
	return obliv.NewCexKernel(c, nw.a, nw.ks)
}

// swapped is the network with each buffer exchanged for its scratch.
func (nw network) swapped() network {
	nw.a, nw.scr, nw.ks, nw.kscr = nw.scr, nw.a, nw.kscr, nw.ks
	return nw
}

// at is the network restricted to the block [lo, lo+m) of its buffers.
func (nw network) at(lo, m int) network {
	nw.a, nw.scr = nw.a.View(lo, m), nw.scr.View(lo, m)
	if nw.ks != nil {
		nw.ks, nw.kscr = nw.ks.View(lo, m), nw.kscr.View(lo, m)
	}
	return nw
}

// transpose writes the buffers, read as a rows×cols row-major matrix, to
// their scratch as its transpose, key planes in lockstep with the elements.
func (nw network) transpose(c *forkjoin.Ctx, rows, cols int) {
	matrix.Transpose(c, nw.scr, nw.a, rows, cols)
	if nw.ks != nil {
		for p := 0; p < nw.ks.Width(); p++ {
			matrix.Transpose(c, nw.kscr.Plane(p), nw.ks.Plane(p), rows, cols)
		}
	}
}

func (nw network) sort(c *forkjoin.Ctx, lo, n int, asc bool) {
	if n == 1 {
		return
	}
	// The recursion structure is a function of (n, leaf) alone — both
	// public — so a cancellation at a recursion entry reveals only how far
	// the fixed schedule progressed.
	c.Check("bitonic.layer")
	if n <= nw.leaf {
		// The serial leaf is the network the recursion above it unrolls to,
		// a fixed sequence of butterfly layers handed whole to the block
		// comparator: sorted sequences of length p < n alternate ascending
		// and descending whatever asc is (the recursion sorts its first half
		// ascending and its second descending), and only the final merge
		// (p = n) runs in direction asc. A leaf therefore leaves the same
		// permutation — ties included — as the fully forked leaf-2 network a
		// metered run executes.
		kern := nw.kernel(c)
		for p := 2; p <= n; p <<= 1 {
			for j := p >> 1; j > 0; j >>= 1 {
				kern.Layer(lo, n, j, p, asc || p < n)
			}
		}
		return
	}
	half := n / 2
	c.Fork(
		func(c *forkjoin.Ctx) { nw.sort(c, lo, half, true) },
		func(c *forkjoin.Ctx) { nw.sort(c, lo+half, half, false) },
	)
	nw.merge(c, lo, n, asc)
}

func (nw network) merge(c *forkjoin.Ctx, lo, m int, asc bool) {
	if m <= nw.leaf {
		kern := nw.kernel(c)
		for j := m >> 1; j > 0; j >>= 1 {
			kern.Layer(lo, m, j, 0, asc)
		}
		return
	}
	k := obliv.Log2(m)
	m1 := 1 << ((k + 1) / 2)
	m2 := m / m1

	// Phase 1: the first ⌈k/2⌉ butterfly layers (distances m/2 .. m2)
	// become full merges of length m1 on the columns, made contiguous in
	// the scratch by a transpose of the m1×m2 row-major view.
	blk := nw.at(lo, m)
	blk.transpose(c, m1, m2)
	sw := nw.swapped()
	forkjoin.ParallelFor(c, 0, m2, 1, func(c *forkjoin.Ctx, i int) {
		sw.merge(c, lo+i*m1, m1, asc)
	})

	// Phase 2: transpose back and run the remaining layers as merges of
	// length m2 on the now-contiguous rows.
	blk.swapped().transpose(c, m2, m1)
	forkjoin.ParallelFor(c, 0, m1, 1, func(c *forkjoin.Ctx, i int) {
		nw.merge(c, lo+i*m2, m2, asc)
	})
}
