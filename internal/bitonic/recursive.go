package bitonic

import (
	"sync/atomic"

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
// from one to the other and back) and the cached key schedule with its
// scratch, which moves through every transpose in lockstep with the
// elements — the network of every sorter, each comparator reading cached
// key words (obliv.BuildKeySchedule). The comparator schedule is a
// function of n alone: same layers, positions and directions whatever the
// comparator, and a schedule of W words per element widens each
// comparator's fixed read/write set and nothing else. lo offsets are
// relative to the start of the top-level range and valid in both buffers.
//
// A network with no element array runs over word planes alone, and the
// transposes move only them: with keys > 0 it sorts them on the
// comparator's plane mode — the first keys planes of ks the key, the rest
// carried (the PRAM layer's requests; one key plane and nothing carried is
// the Theorem E.1 ablation, in which a compare-exchange touches one word
// per side) — recording one bit per comparator, set iff it exchanged its
// pair, when it has a swap record; with keys 0 it replays a record
// backwards, the un-sort, over planes that hold the values being carried
// home (the gather's routed values). Bit offsets follow the fork tree: a
// sort's record is its two halves' records, then its merge's; a merge's
// is its column merges', then its row merges'; a leaf's is its layers' in
// order, n/2 bits each (layout).
type network struct {
	a, scr   *mem.Array[obliv.Elem]
	ks, kscr *obliv.KeySchedule
	keys     int
	rec      *mem.Array[uint64]
	bits     *layout
	leaf     int
}

// leafFor resolves a requested leaf size: DefaultLeaf below 2, and 2 under
// the metered executor, which measures the span of the fully forked network
// (grain-1 policy).
func leafFor(c *forkjoin.Ctx, leaf int) int {
	if c.Metered() {
		return 2
	}
	if leaf < 2 {
		return DefaultLeaf
	}
	return leaf
}

// newNetwork views a[lo:lo+n] and the first n elements of scratch (if
// there are elements) and ks[lo:lo+n], kscr[0:n] as a network's buffers,
// with the leaf size resolved.
func newNetwork(c *forkjoin.Ctx, a, scratch *mem.Array[obliv.Elem], ks, kscr *obliv.KeySchedule, lo, n, leaf int) network {
	if !obliv.IsPow2(n) {
		panic("bitonic: n must be a power of two")
	}
	nw := network{ks: ks.View(lo, n), kscr: kscr.View(0, n), leaf: leafFor(c, leaf)}
	if a != nil {
		nw.a, nw.scr = a.View(lo, n), scratch.View(0, n)
	}
	return nw
}

// recorded is nw with the swap record rec, which must hold
// RecordWords(c, n, leaf) words for the network's n elements.
func (nw network) recorded(c *forkjoin.Ctx, rec *mem.Array[uint64]) network {
	n := nw.ks.Len()
	nw.rec, nw.bits = rec, layoutFor(nw.leaf, c.Metered())
	if rec.Len() < nw.bits.words(n) {
		panic("bitonic: swap record too short")
	}
	return nw
}

// layout is the swap-record layout of a recorded network: the bit lengths
// of the records of a sort and of a merge of 2^k elements. A leaf's n/2
// bits per layer are contiguous, and on the serial and pool executors each
// leaf's range is padded to whole 64-bit words, so leaves that run
// concurrently never share a word; the metered executor runs one task at a
// time and packs the bits densely. The layout is therefore a function of
// (n, executor kind) — the leaf size is one too — and so is every address
// the record and its replay touch.
//
// Size: one bit per comparator, n/4·log n·(log n + 1) bits ≈
// n/32·log²n bytes, plus at most one word per padded leaf — 105 KiB dense
// at n = 2^14 and 110 KiB padded.
type layout struct {
	sort, merge [layoutLogs]int
}

// layoutLogs bounds the sizes a layout covers: up to 2^(layoutLogs-1)
// elements, beyond any array an executor holds.
const layoutLogs = 48

// layouts holds the layout of each executor kind and leaf size 2^i at
// [dense][i], computed at first use (twice, equal, if two race) and read
// without a lock after.
var layouts [2][64]atomic.Pointer[layout]

// layoutFor is the layout of recorded sorts at the resolved leaf size,
// packed densely or with every leaf padded to whole words.
func layoutFor(leaf int, dense bool) *layout {
	if !obliv.IsPow2(leaf) {
		return newLayout(leaf, dense)
	}
	slot := &layouts[0][obliv.Log2(leaf)]
	if dense {
		slot = &layouts[1][obliv.Log2(leaf)]
	}
	l := slot.Load()
	if l == nil {
		l = newLayout(leaf, dense)
		slot.Store(l)
	}
	return l
}

// newLayout computes the layout of sorts at the resolved leaf size: packed
// densely, or with every leaf padded to whole words.
func newLayout(leaf int, dense bool) *layout {
	pad := func(b int) int {
		if dense {
			return b
		}
		return (b + 63) &^ 63
	}
	l := new(layout)
	for k := 1; k < layoutLogs; k++ {
		m := 1 << k
		if m <= leaf {
			l.merge[k] = pad(m / 2 * k)
			l.sort[k] = pad(m / 2 * k * (k + 1) / 2)
			continue
		}
		k1, k2 := (k+1)/2, k/2
		l.merge[k] = 1<<k2*l.merge[k1] + 1<<k1*l.merge[k2]
		l.sort[k] = 2*l.sort[k-1] + l.merge[k]
	}
	return l
}

// words is the record length of a sort of n elements.
func (l *layout) words(n int) int { return (l.sort[obliv.Log2(n)] + 63) >> 6 }

// sortBits and mergeBits are the record lengths of a sort and of a merge of
// n elements (0 when nothing is recorded).
func (nw network) sortBits(n int) int {
	if nw.bits == nil {
		return 0
	}
	return nw.bits.sort[obliv.Log2(n)]
}

func (nw network) mergeBits(n int) int {
	if nw.bits == nil {
		return 0
	}
	return nw.bits.merge[obliv.Log2(n)]
}

// SortCAKeyed is the paper's cache-agnostic, binary fork-join BITONIC-SORT
// (§E.1.1) against a cached key schedule: recursively sort the two halves
// in opposite directions, then BITONIC-MERGE. It sorts a[lo:lo+n] by ks,
// which is indexed identically to a (ks[lo:lo+n) cache the keys of
// a[lo:lo+n)); scratch must have length >= n, kscr must match ks's width
// and cover >= n elements, and neither may alias a or ks. n must be a
// power of two.
//
// Costs (Theorem E.1): O(n log² n) work, O(log² n · log log n) span,
// O((n/B)·log_M n·log(n/M)) cache misses for n > M >= B².
func SortCAKeyed(c *forkjoin.Ctx, a, scratch *mem.Array[obliv.Elem], ks, kscr *obliv.KeySchedule, lo, n int, asc bool, leaf int) {
	newNetwork(c, a, scratch, ks, kscr, lo, n, leaf).sort(c, 0, n, asc, 0)
}

// RecordWords is the length in words of the swap record of an n-element
// recorded sort at the requested leaf size under the executor behind c (see
// layout for its size).
func RecordWords(c *forkjoin.Ctx, n, leaf int) int {
	if n <= 1 {
		return 0
	}
	return layoutFor(leafFor(c, leaf), c.Metered()).words(n)
}

// SortCAPlanes is SortCAKeyed over the word planes of ws alone: it sorts
// ws[lo:lo+n) by the first k planes (1 or 2) compared lexicographically,
// the rest carried with their key, on the comparator's plane mode; wscr
// (ws's width, >= n slots) is the transposes' scratch. Equal keys are full
// ties, ordered by the network: the same on every executor and at every
// leaf size. With k = 1 and nothing carried it is the Theorem E.1
// ablation's cache-agnostic network, one word per comparator side. A
// non-nil rec, which must hold RecordWords(c, n, leaf) words, receives
// every comparator's swap bit; the record depends on nothing but the
// comparators' outcomes, so UnsortCA can carry values written into the
// sorted slots back to their original ones.
func SortCAPlanes(c *forkjoin.Ctx, ws, wscr *obliv.KeySchedule, k int, rec *mem.Array[uint64], lo, n int, asc bool, leaf int) {
	nw := newNetwork(c, nil, nil, ws, wscr, lo, n, leaf)
	nw.keys = k
	if rec != nil {
		nw = nw.recorded(c, rec)
	}
	nw.sort(c, 0, n, asc, 0)
}

// UnsortCA undoes SortCAPlanes(c, _, _, _, rec, lo, n, _, leaf) on the
// word planes of vs: it runs the same fork tree and transposes
// backwards — each merge un-merged before its two halves are un-sorted, a
// merge's row phase before its column phase, a leaf's layers in reverse —
// and exchanges exactly the pairs the sort exchanged, so the word in slot
// r of each plane of vs[lo:lo+n) moves to the slot the entry sorted to r
// came from. vscr (vs's width, >= n slots) is the transposes' scratch. No
// element and no key is read: a replay moves the words its caller reads
// back and nothing else. It must run under the same kind of executor
// (metered or not) as the recorded sort; its access pattern is a function
// of n, the width of vs and that kind alone.
func UnsortCA(c *forkjoin.Ctx, vs, vscr *obliv.KeySchedule, rec *mem.Array[uint64], lo, n, leaf int) {
	newNetwork(c, nil, nil, vs, vscr, lo, n, leaf).recorded(c, rec).unsort(c, 0, n, 0)
}

// MergeCA is the paper's cache-agnostic BITONIC-MERGE (§E.1.2) applied to
// the bitonic sequence a[lo:lo+m]; scratch must have length >= m and not
// alias a. m must be a power of two. It builds the one-word key schedule of
// key and runs the keyed merge of the CacheAgnostic network (ties by
// TiePos). It exists only for the benchmark harness's merge probe, which
// calls it with this signature: the schedule is allocated in a private
// address space, so it is not for metered use, and it goes once the
// harness moves to the sorters' own calls (ROADMAP item 1 slice 2).
//
// The m-input reverse butterfly is evaluated as
//
//	transpose (m1×m2 → m2×m1) → merge the m2 rows of length m1
//	→ transpose back → merge the m1 rows of length m2,
//
// with m1 = 2^⌈k/2⌉, m2 = m/m1. The recursion structure mirrors the FFT of
// Frigo et al. [FLPR99].
func MergeCA(c *forkjoin.Ctx, a, scratch *mem.Array[obliv.Elem], lo, m int, asc bool, leaf int, key func(obliv.Elem) uint64) {
	sp := mem.NewSpace()
	ks, kscr := obliv.AllocKeySchedule(sp, m, 1), obliv.AllocKeySchedule(sp, m, 1)
	a = a.View(lo, m)
	obliv.BuildKeySchedule(c, a, ks, 0, m, func(e obliv.Elem, out []uint64) { out[0] = key(e) })
	newNetwork(c, a, scratch, ks, kscr, 0, m, leaf).merge(c, 0, m, asc, 0)
}

// kernel is the block comparator of the network bound to its element array
// by cached key — or, with no element array, the plane sort (recording
// into the network's record when it has one) or the record's replay over
// its word planes — and to the executor behind c.
func (nw network) kernel(c *forkjoin.Ctx) obliv.CexKernel {
	switch {
	case nw.a != nil:
		return obliv.NewCexKernel(c, nw.a, nw.ks)
	case nw.keys == 0:
		return obliv.NewCexKernelReplay(c, nw.ks, nw.rec)
	}
	return obliv.NewCexKernelPlanes(c, nw.ks, nw.keys, nw.rec)
}

// swapped is the network with each buffer exchanged for its scratch.
func (nw network) swapped() network {
	nw.a, nw.scr, nw.ks, nw.kscr = nw.scr, nw.a, nw.kscr, nw.ks
	return nw
}

// at is the network restricted to the block [lo, lo+m) of its buffers.
func (nw network) at(lo, m int) network {
	if nw.a != nil {
		nw.a, nw.scr = nw.a.View(lo, m), nw.scr.View(lo, m)
	}
	nw.ks, nw.kscr = nw.ks.View(lo, m), nw.kscr.View(lo, m)
	return nw
}

// transpose writes the buffers, read as a rows×cols row-major matrix, to
// their scratch as its transpose, key planes in lockstep with the elements.
func (nw network) transpose(c *forkjoin.Ctx, rows, cols int) {
	if nw.a != nil {
		matrix.Transpose(c, nw.scr, nw.a, rows, cols)
	}
	for p := 0; p < nw.ks.Width(); p++ {
		matrix.Transpose(c, nw.kscr.Plane(p), nw.ks.Plane(p), rows, cols)
	}
}

// sort sorts the block [lo, lo+n) in direction asc, recording at bit q.
func (nw network) sort(c *forkjoin.Ctx, lo, n int, asc bool, q int) {
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
		// metered run executes. Each stage p is one kernel Merge, which on
		// the raw plane and replay kernels fuses the stage's last three
		// layers into one pass over 8-slot blocks with the same outcomes
		// and record bits.
		kern := nw.kernel(c)
		for p := 2; p <= n; p <<= 1 {
			kern.Merge(lo, n, p, p, asc || p < n, q)
			q += obliv.Log2(p) * (n >> 1)
		}
		return
	}
	half := n / 2
	hb := nw.sortBits(half)
	c.Fork(
		func(c *forkjoin.Ctx) { nw.sort(c, lo, half, true, q) },
		func(c *forkjoin.Ctx) { nw.sort(c, lo+half, half, false, q+hb) },
	)
	nw.merge(c, lo, n, asc, q+2*hb)
}

// unsort replays sort(c, lo, n, _, q) backwards.
func (nw network) unsort(c *forkjoin.Ctx, lo, n, q int) {
	if n == 1 {
		return
	}
	c.Check("bitonic.layer")
	if n <= nw.leaf {
		kern := nw.kernel(c)
		k := obliv.Log2(n)
		q += k * (k + 1) / 2 * (n >> 1) // past the leaf's last layer
		for p := n; p >= 2; p >>= 1 {
			q -= obliv.Log2(p) * (n >> 1)
			kern.Unmerge(lo, n, p, q)
		}
		return
	}
	half := n / 2
	hb := nw.sortBits(half)
	nw.unmerge(c, lo, n, q+2*hb)
	c.Fork(
		func(c *forkjoin.Ctx) { nw.unsort(c, lo, half, q) },
		func(c *forkjoin.Ctx) { nw.unsort(c, lo+half, half, q+hb) },
	)
}

// merge merges the bitonic block [lo, lo+m) in direction asc, recording at
// bit q.
func (nw network) merge(c *forkjoin.Ctx, lo, m int, asc bool, q int) {
	if m <= nw.leaf {
		// One stage of the leaf loop: log2 m layers, the last three fused
		// on the raw plane and replay kernels.
		kern := nw.kernel(c)
		kern.Merge(lo, m, m, 0, asc, q)
		return
	}
	m1, m2 := mergeShape(m)
	b1, b2 := nw.mergeBits(m1), nw.mergeBits(m2)

	// Phase 1: the first ⌈k/2⌉ butterfly layers (distances m/2 .. m2)
	// become full merges of length m1 on the columns, made contiguous in
	// the scratch by a transpose of the m1×m2 row-major view.
	blk := nw.at(lo, m)
	blk.transpose(c, m1, m2)
	sw := nw.swapped()
	forkjoin.ParallelFor(c, 0, m2, nw.rowGrain(m1), func(c *forkjoin.Ctx, i int) {
		sw.merge(c, lo+i*m1, m1, asc, q+i*b1)
	})

	// Phase 2: transpose back and run the remaining layers as merges of
	// length m2 on the now-contiguous rows.
	blk.swapped().transpose(c, m2, m1)
	forkjoin.ParallelFor(c, 0, m1, nw.rowGrain(m2), func(c *forkjoin.Ctx, i int) {
		nw.merge(c, lo+i*m2, m2, asc, q+m2*b1+i*b2)
	})
}

// rowGrain is the number of row merges (or un-merges) of length rowLen one
// task runs: a leaf's worth of elements, so a short row is not a task of
// its own. The metered executor forks every row whatever the grain.
func (nw network) rowGrain(rowLen int) int { return max(1, nw.leaf/rowLen) }

// unmerge replays merge(c, lo, m, _, q) backwards: the row merges are
// undone first, then the same two transposes bracket the undone column
// merges — the first moves the rows back into columns, the second
// restores the layout the merge started from.
func (nw network) unmerge(c *forkjoin.Ctx, lo, m, q int) {
	if m <= nw.leaf {
		kern := nw.kernel(c)
		kern.Unmerge(lo, m, m, q)
		return
	}
	m1, m2 := mergeShape(m)
	b1, b2 := nw.mergeBits(m1), nw.mergeBits(m2)
	forkjoin.ParallelFor(c, 0, m1, nw.rowGrain(m2), func(c *forkjoin.Ctx, i int) {
		nw.unmerge(c, lo+i*m2, m2, q+m2*b1+i*b2)
	})
	blk := nw.at(lo, m)
	blk.transpose(c, m1, m2)
	sw := nw.swapped()
	forkjoin.ParallelFor(c, 0, m2, nw.rowGrain(m1), func(c *forkjoin.Ctx, i int) {
		sw.unmerge(c, lo+i*m1, m1, q+i*b1)
	})
	blk.swapped().transpose(c, m2, m1)
}

// mergeShape splits a merge of m = 2^k elements into m1 = 2^⌈k/2⌉ columns
// of m2 = m/m1 rows.
func mergeShape(m int) (m1, m2 int) {
	m1 = 1 << ((obliv.Log2(m) + 1) / 2)
	return m1, m / m1
}
