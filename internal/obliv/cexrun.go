package obliv

import (
	"fmt"
	"math/bits"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
)

// This file holds the block form of the comparator and Layer, the one forked
// driver of every layer-by-layer comparator network: Stages and Merge (the
// bitonic stage and merge loops, written once), the bitonic merge and its
// recorded un-merge, the top-k tournament, and the Theorem E.1 ablation's
// naive bitonic and odd–even networks. The cache-agnostic bitonic recursion
// runs its leaves on the same comparator, in all three modes. A network is
// a fixed sequence of layers, and a layer a fixed sequence of runs — the
// pairs (i+t, i+stride+t), t = 0..cnt-1, all in one direction — so the
// executor question ("instrumented or not") is asked once, when the
// CexKernel is made, instead of once per word. A run has three modes: it
// compare-exchanges elements by cached key; it compare-exchanges word
// planes alone — one or two key planes compared lexicographically, the
// rest carried — and may record each pair's swap bit; or it replays
// recorded bits over word planes (no key, no compare). The element sorts
// run the first. The PRAM layer, whose payload is one word, sorts and
// merges planes with the second, so a comparator moves two or three words
// where an element comparator drags a 48-byte record and its recomputed
// TiePos pair through the layer; the Theorem E.1 ablation's networks run
// it over one key plane, the paper's cost model, in which a
// compare-exchange touches one word per side. A replay moves only the
// words its caller reads back. Under the metered executor a run is
// literally a loop over CompareExchangeCachedW (on planes: per pair a read
// of every plane at both positions, the compare, a rewrite of both, and a
// read and rewrite of the bit's word when recording; replaying: the bit's
// word, then per plane a read and a rewrite of both positions): that
// per-access loop is the specification. Under the serial and pool
// executors element widths 1 and 2, plane sorts of one or two key planes
// with at most one carried plane, and replays over one or two planes go
// over the raw slices with a comparator that never branches on the
// comparison outcome: the outcome becomes an all-ones/all-zero mask and
// both positions are rewritten with mask-selected words, so neither the
// address sequence nor the branch history of a leaf depends on the data
// (TestCompiledKernelsBranchFree checks the compiled raw kernels). Where
// the CPU has AVX-512 F and DQ and the OS saves their registers — CPUID and
// XGETBV, read once at start-up (useAVX512) — the raw plane and replay
// chunk loops run in assembly, 8 pairs per step (cexrun_amd64.s), with the
// same outcomes, bits and addresses; the Go loops are the portable path
// elsewhere and the reference the vector ones are tested against. Wider
// schedules take the per-access loop under every executor. The raw plane
// and replay kernels also fuse the last three layers of a merge stage
// (strides 4, 2 and 1) into one tail pass over 8-slot blocks, whose words
// are compare-exchanged in registers, with the outcomes and record bits of
// the three layers; the per-access path and the element comparator run
// every layer, so no trace moves.

// posWords packs the TiePos triple of e into two words ordered
// lexicographically like PosAfter: (non-Real bit, Tag), then Aux.
func posWords(e *Elem) (hi, lo uint64) {
	nonReal := (uint64(e.Kind^Real) + 0xff) >> 8
	return nonReal<<32 | uint64(e.Tag), e.Aux
}

// CondSwap exchanges *x and *y if m is all ones and rewrites both with
// their own contents if m is zero — the same loads, stores and instruction
// stream either way. It is the move half of the block comparator and the
// switch of the Beneš network.
func CondSwap(x, y *Elem, m uint64) {
	d := (x.Key ^ y.Key) & m
	x.Key, y.Key = x.Key^d, y.Key^d
	d = (x.Key2 ^ y.Key2) & m
	x.Key2, y.Key2 = x.Key2^d, y.Key2^d
	d = (x.Val ^ y.Val) & m
	x.Val, y.Val = x.Val^d, y.Val^d
	d = (x.Aux ^ y.Aux) & m
	x.Aux, y.Aux = x.Aux^d, y.Aux^d
	d = (x.Lbl ^ y.Lbl) & m
	x.Lbl, y.Lbl = x.Lbl^d, y.Lbl^d
	dt := (x.Tag ^ y.Tag) & uint32(m)
	x.Tag, y.Tag = x.Tag^dt, y.Tag^dt
	dk := (x.Kind ^ y.Kind) & Kind(m)
	x.Kind, y.Kind = x.Kind^dk, y.Kind^dk
	dm := (x.Mark ^ y.Mark) & uint8(m)
	x.Mark, y.Mark = x.Mark^dm, y.Mark^dm
}

// DivU64 returns a / d, or 0 when d is 0, in fixed time: 64 restoring
// shift-subtract steps with no branch on a or d and no hardware divide,
// whose latency varies with its operands. It is never inlined, so its one
// compiled copy is what the branch-freedom test checks.
//
//go:noinline
func DivU64(a, d uint64) uint64 {
	var q, r uint64
	for i := 63; i >= 0; i-- {
		// r < d, so 2r + 1 needs at most 65 bits, the 65th shifted out of
		// r; r − d wraps to the true difference whenever a step subtracts.
		hi := r >> 63
		r = r<<1 | a>>i&1
		_, borrow := bits.Sub64(r, d, 0)
		ge := hi | borrow ^ 1
		r -= d & -ge
		q |= ge << i
	}
	return q & -((d | -d) >> 63)
}

// Layer runs one layer of a comparator network as a single fork tree over
// its nb·cnt comparators on the block comparator k, rebound to each leaf's
// context. Block b (b < nb) starts at b·gap and holds cnt comparators;
// comparator u of a block pairs the slot u/j·2j + u%j of the block with the
// slot j to its right, ascending — or, with alt, ascending only in even
// blocks. j is a power of two, and either j divides cnt (a butterfly layer)
// or cnt <= j (a half-cleaner run). Each leaf hands its comparators to k as
// maximal runs — a plane or replay kernel, which numbers pairs as the
// layer does, as one run per block. A recording plane kernel or a
// replaying k numbers comparator v = b·cnt + u as bit q+v. Leaves record
// concurrently, so a recording layer of more than passGrain comparators
// must give each leaf whole words — q a multiple of 64 and nb·cnt a power
// of two — as every merge layer does.
func Layer(c *forkjoin.Ctx, k CexKernel, q, nb, gap, cnt, j int, alt bool) {
	if nb*cnt <= passGrain && !c.Metered() {
		// The one leaf ParallelRange would run, without its fork closures.
		k.layer(c, q, gap, cnt, j, alt, 0, nb*cnt)
		return
	}
	layerForked(c, k, q, nb, gap, cnt, j, alt)
}

// layerForked is Layer's fork tree. Its closure captures k, which moves k
// to the heap; kept out of Layer, it does so only on the forked path, and
// the unforked leaf path keeps its k on the stack.
func layerForked(c *forkjoin.Ctx, k CexKernel, q, nb, gap, cnt, j int, alt bool) {
	forkjoin.ParallelRange(c, 0, nb*cnt, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		k.layer(c, q, gap, cnt, j, alt, lo, hi)
	})
}

// layer runs comparators [lo, hi) of a Layer on k rebound to c.
func (k CexKernel) layer(c *forkjoin.Ctx, q, gap, cnt, j int, alt bool, lo, hi int) {
	k.c = c // the raw views depend on the executor kind only
	b, u := lo/cnt, lo%cnt
	for v := lo; v < hi; {
		asc := !alt || b&1 == 0
		var m int
		if k.a == nil {
			m = min(cnt-u, hi-v)
			k.pairs(b*gap, j, u, u+m, 0, asc, q+v-u)
		} else {
			off := u & (j - 1)
			m = min(j-off, cnt-u, hi-v)
			k.run(b*gap+(u-off)<<1+off, j, m, asc)
		}
		v += m
		if u += m; u == cnt {
			b, u = b+1, 0
		}
	}
}

// Merge runs a bitonic merge of m elements on each of nb blocks, block b
// starting at b·gap: log2 m half-cleaner layers (distances m/2 down to 1),
// each one Layer, ascending — or, with alt, ascending only in even blocks.
// Recording, layer l's bits start at q + l·nb·m/2. When the blocks are
// contiguous (gap = m) and k fuses (see CexKernel.fuses), the last three
// layers run as one tail pass over 8-slot blocks, forked like a Layer, with
// the same outcomes and record bits.
func Merge(c *forkjoin.Ctx, k CexKernel, q, nb, gap, m int, alt bool) {
	period := 0
	if alt {
		period = m
	}
	fused := gap == m && k.fuses(false, m, period, q)
	for j := m >> 1; j > 0; j >>= 1 {
		if fused && j == 4 {
			tail(c, k, q, nb*m, period)
			return
		}
		Layer(c, k, q, nb, gap, m>>1, j, alt)
		q += nb * m >> 1
	}
}

// tail runs the layers at strides 4, 2 and 1 of a merge over the n slots of
// k — replaying, at strides 1, 2 and 4 — whose stride-4 layer records at
// bit q, as one fork tree over the 8-slot blocks. A leaf of passGrain/4
// blocks covers passGrain comparators of each layer, so when the tail
// forks (n > 2·passGrain, q a multiple of 64, as Layer requires) each
// leaf's bits are whole words. k must fuse.
func tail(c *forkjoin.Ctx, k CexKernel, q, n, period int) {
	if n <= 2*passGrain {
		k.tail(0, 0, n, period, true, q, n>>1)
		return
	}
	tailForked(c, k, q, n, period)
}

// tailForked is tail's fork tree, kept apart for the reason layerForked is.
func tailForked(c *forkjoin.Ctx, k CexKernel, q, n, period int) {
	forkjoin.ParallelRange(c, 0, n>>3, passGrain>>2, func(_ *forkjoin.Ctx, lo, hi int) {
		k.tail(0, lo<<3, hi<<3, period, true, q, n>>1)
	})
}

// Stages runs the first log2 K stages of Batcher's bitonic sort over the n
// elements of k (both powers of two, K <= n): afterwards every block of K
// is sorted, ascending in even blocks and descending in odd ones. Stage p
// is one Merge of the blocks of p. Stages(c, k, n, n) is the whole network
// and leaves the n elements ascending.
func Stages(c *forkjoin.Ctx, k CexKernel, n, K int) {
	for p := 2; p <= K; p <<= 1 {
		Merge(c, k, 0, n/p, p, p, true)
	}
}

// CexKernel is the block comparator bound to one array and one kind of
// executor in one of its three modes: NewCexKernel (elements by cached
// key), NewCexKernelPlanes (word planes) and NewCexKernelReplay decide once
// whether runs go through the per-access specification or over the raw
// slices.
type CexKernel struct {
	c    *forkjoin.Ctx
	a    *mem.Array[Elem]   // the elements; nil in the plane and replay modes
	ks   *KeySchedule       // the key schedule, or the sorted or replayed word planes
	nkey int                // plane mode: the leading planes of ks that are the key; 0 replays
	rec  *mem.Array[uint64] // the swap record a plane sort writes and a replay reads

	// Raw views, nil when runs take the per-access path.
	e         []Elem
	k0, k1, v []uint64
	bits      []uint64
}

// NewCexKernel binds the comparator to a, ks (indexed identically) and the
// executor behind c.
func NewCexKernel(c *forkjoin.Ctx, a *mem.Array[Elem], ks *KeySchedule) CexKernel {
	k := CexKernel{c: c, a: a, ks: ks}
	if len(ks.planes) > 2 {
		return k
	}
	if k.e = a.Raw(c); k.e == nil {
		return k
	}
	k.k0 = ks.planes[0].Raw(c)
	if len(ks.planes) == 2 {
		k.k1 = ks.planes[1].Raw(c)
	}
	return k
}

// NewCexKernelPlanes binds the comparator's plane mode to the word planes
// of ws, with no element array: a pair is ordered by the first k planes
// (k = 1 or 2) compared lexicographically, and the remaining planes move
// with their key. Equal keys are full ties — there is no TiePos to read —
// so they hold on ascending comparators and swap on descending ones. A
// non-nil rec receives each pair's swap bit (Layer's q names the bits),
// from which NewCexKernelReplay undoes the moves.
func NewCexKernelPlanes(c *forkjoin.Ctx, ws *KeySchedule, k int, rec *mem.Array[uint64]) CexKernel {
	if k < 1 || k > 2 || k > len(ws.planes) {
		panic(fmt.Sprintf("obliv: plane comparator over %d key planes of %d", k, len(ws.planes)))
	}
	kern := CexKernel{c: c, ks: ws, nkey: k, rec: rec}
	if len(ws.planes)-k > 1 {
		return kern
	}
	if kern.k0 = ws.planes[0].Raw(c); kern.k0 == nil {
		return kern
	}
	if k == 2 {
		kern.k1 = ws.planes[1].Raw(c)
	}
	if len(ws.planes) > k {
		kern.v = ws.planes[k].Raw(c)
	}
	if rec != nil {
		kern.bits = rec.Raw(c)
	}
	return kern
}

// NewCexKernelReplay binds the comparator's replay mode to the recorded
// swap bits rec and the word planes of ws, which it moves as a recorded run
// moved its planes (Layer's q names the bits). The planes are whatever the
// caller wants carried back — a routed value, an index — not keys: a
// replay compares nothing.
func NewCexKernelReplay(c *forkjoin.Ctx, ws *KeySchedule, rec *mem.Array[uint64]) CexKernel {
	k := CexKernel{c: c, ks: ws, rec: rec}
	if len(ws.planes) > 2 {
		return k
	}
	if k.k0 = ws.planes[0].Raw(c); k.k0 == nil {
		return k
	}
	if len(ws.planes) == 2 {
		k.k1 = ws.planes[1].Raw(c)
	}
	k.bits = rec.Raw(c)
	return k
}

// run compare-exchanges the element pairs (i+t, i+stride+t) for t =
// 0..cnt-1 in ascending t, every pair ordered ascending by cached key if
// asc and descending otherwise: exactly cnt calls of
// CompareExchangeCachedW. The plane and replay modes run through pairs.
func (k *CexKernel) run(i, stride, cnt int, asc bool) {
	j := i + stride
	if k.e != nil {
		cexRun(k.e, k.k0, k.k1, i, j, cnt, descMask(asc))
		return
	}
	c, a := k.c, k.a
	for t := 0; t < cnt; t++ {
		CompareExchangeCachedW(c, a, k.ks, i+t, j+t, asc)
	}
}

// descMask is the direction of a run as a mask: all ones for descending.
func descMask(asc bool) uint64 {
	if asc {
		return 0
	}
	return ^uint64(0)
}

// pairs runs the plane or replay mode over the pairs u0 <= u < u1 of a
// butterfly layer at lo — pair u joins lo+pos(u) and stride slots on, with
// pos(u) = (u/stride)·2·stride + u%stride (stride a power of two) — its
// swap bit being q+u. A plane sort orders pair u ascending if
// (pos(u)&^(stride-1))&period == 0 equals asc — period 0 is one
// direction, period p the layer of a bitonic sort building sorted runs of
// p — and records its outcome as bit q+u if the kernel has a record: under
// the metered executor a read and a rewrite of the bit's word, at an
// address fixed by q+u; the raw kernel writes the bit with mask arithmetic
// and never branches on it. A replay instead exchanges the words of pair u
// in every plane iff bit q+u is set, ignoring asc.
func (k *CexKernel) pairs(lo, stride, u0, u1, period int, asc bool, q int) {
	if k.nkey == 0 {
		k.replay(lo, stride, u0, u1, q)
		return
	}
	k.planes(lo, stride, u0, u1, period, asc, q)
}

// planes is the plane sort of pairs: per access it reads every plane at
// both positions of a pair, compares, rewrites both positions of every
// plane and, recording, reads and rewrites the bit's word; raw, it is one
// planeRun (planePairs below runMin).
func (k *CexKernel) planes(lo, stride, u0, u1, period int, asc bool, q int) {
	if k.k0 != nil {
		run := planeRun
		if stride < runMin {
			run = planePairs
		} else if useAVX512 {
			run = planeRunVector
		}
		run(k.k0, k.k1, k.v, lo, stride, u0, u1, period, descMask(asc), k.bits, q)
		return
	}
	c := k.c
	var x, y [MaxScheduleWidth]uint64
	for u := u0; u < u1; u++ {
		i0 := (u &^ (stride - 1)) << 1
		i := lo + i0 + u&(stride-1)
		for p, pl := range k.ks.planes {
			x[p], y[p] = pl.Get(c, i), pl.Get(c, i+stride)
		}
		c.Op(1) // the comparison
		gt := false
		for p := 0; p < k.nkey; p++ {
			if x[p] != y[p] {
				gt = x[p] > y[p]
				break
			}
		}
		swap := gt == (i0&period == 0 == asc)
		if swap {
			x, y = y, x
		}
		for p, pl := range k.ks.planes {
			pl.Set(c, i, x[p])
			pl.Set(c, i+stride, y[p])
		}
		if k.rec != nil {
			var bit uint64
			if swap {
				bit = 1
			}
			b := q + u
			w := k.rec.Get(c, b>>6)
			k.rec.Set(c, b>>6, w&^(1<<(b&63))|bit<<(b&63))
		}
	}
}

// replay is the replay of pairs: it exchanges the words of every plane at
// both positions of pair u iff bit q+u is set. Per access it reads the
// bit's word, then reads and rewrites both positions of each plane; raw,
// it is replayRun (replayPairs below runMin) once per plane.
func (k *CexKernel) replay(lo, stride, u0, u1, q int) {
	if k.k0 != nil {
		run := replayRun
		if stride < runMin {
			run = replayPairs
		} else if useAVX512 {
			run = replayRunVector
		}
		run(k.k0, lo, stride, u0, u1, k.bits, q)
		if k.k1 != nil {
			run(k.k1, lo, stride, u0, u1, k.bits, q)
		}
		return
	}
	c := k.c
	for u := u0; u < u1; u++ {
		i := lo + (u&^(stride-1))<<1 + u&(stride-1)
		b := q + u
		w := k.rec.Get(c, b>>6)
		c.Op(1)
		swap := w>>(b&63)&1 == 1
		for _, p := range k.ks.planes {
			x, y := p.Get(c, i), p.Get(c, i+stride)
			if swap {
				x, y = y, x
			}
			p.Set(c, i, x)
			p.Set(c, i+stride, y)
		}
	}
}

// Layer runs one butterfly layer over the block [lo, lo+n): for every
// i0 = 0, 2·stride, 4·stride, … < n the run of stride pairs at lo+i0, in
// ascending i0. A run is ordered ascending if (i0&period == 0) == asc and
// descending otherwise — period 0 is a merge layer (one direction), period
// k the layer of a bitonic sort building sorted sequences of length k. A
// recording plane kernel or a replaying one keeps the layer's n/2 swap
// bits at q.., pair t of the run at i0 as bit q + i0/2 + t. Unlike the
// forked Layer it does no per-run index arithmetic of its own. The plane
// and replay modes take the whole layer in one raw kernel call, which
// walks each run as contiguous sub-slices, or pair by pair when runs are
// shorter than runMin (a word move is too cheap to pay a call per run of
// one pair). The bitonic leaves reach it through Merge and Unmerge.
func (k *CexKernel) Layer(lo, n, stride, period int, asc bool, q int) {
	if k.a == nil {
		k.pairs(lo, stride, 0, n>>1, period, asc, q)
		return
	}
	for i0 := 0; i0 < n; i0 += 2 * stride {
		k.run(lo+i0, stride, stride, (i0&period == 0) == asc)
	}
}

// Merge runs the bitonic merges of the blocks of p slots of [lo, lo+n): the
// butterfly layers at strides p/2 down to 1, each one Layer(lo, n, j,
// period, asc, q) with q advancing n/2 per layer. It is the serial leaf
// loop of the bitonic sorts and merges. On a kernel that fuses, the layers
// at strides 4, 2 and 1 run as one tail pass over 8-slot blocks, with the
// outcomes and record bits of the three Layers.
func (k *CexKernel) Merge(lo, n, p, period int, asc bool, q int) {
	fused := k.fuses(false, p, period, q)
	for j := p >> 1; j > 0; j >>= 1 {
		if fused && j == 4 {
			k.tail(lo, 0, n, period, asc, q, n>>1)
			return
		}
		k.Layer(lo, n, j, period, asc, q)
		q += n >> 1
	}
}

// Unmerge replays Merge(lo, n, p, _, _, q) backwards on a replay kernel: the
// layers at strides 1 up to p/2, the first three fused when the kernel
// fuses.
func (k *CexKernel) Unmerge(lo, n, p, q int) {
	j, l := 1, Log2(p)-1 // l: the merge's index of the layer at stride j
	if k.fuses(true, p, 0, q) {
		k.tail(lo, 0, n, 0, true, q+(l-2)*(n>>1), n>>1)
		j, l = 8, l-3
	}
	for ; j < p; j, l = j<<1, l-1 {
		k.Layer(lo, n, j, 0, true, q+l*(n>>1))
	}
}

// fuses reports whether a merge of blocks of p slots at the given period,
// recording from bit q — or, replaying, its undoing — runs the three
// layers at strides 4, 2 and 1 as one tail pass: only the raw plane kernel
// merging and the raw replay kernel undoing a merge do (the element
// comparator and the per-access path run every layer, and a kernel run in
// the other order runs its layers one by one), and only for p >= 8, a
// period of 0 or a multiple of 8 — one direction per 8-slot block — and q
// on a 4-bit boundary, so a layer's four bits of a block lie in one record
// word. Every input is public.
func (k *CexKernel) fuses(replay bool, p, period, q int) bool {
	return k.a == nil && k.k0 != nil && (k.nkey == 0) == replay && p >= 8 && period&7 == 0 && q&3 == 0
}

// tail runs the layers at strides 4, 2 and 1 — replaying, 1, 2 and 4 — over
// the 8-slot blocks at base+o, o0 <= o < o1 (multiples of 8), as Layer(base,
// 2h, j, period, asc, q + l·h) for the layers l = 0, 1, 2 at j = 4, 2, 1
// would over those blocks: a block's direction is asc flipped when o&period
// is set, and its bits in layer l are q + l·h + o/2 .. +3. k must fuse.
func (k *CexKernel) tail(base, o0, o1, period int, asc bool, q, h int) {
	if k.nkey == 0 {
		replayTail(k.k0, base, o0, o1, k.bits, q, h)
		if k.k1 != nil {
			replayTail(k.k1, base, o0, o1, k.bits, q, h)
		}
		return
	}
	planeTail(k.k0, k.k1, k.v, base, o0, o1, period, descMask(asc), k.bits, q, h)
}

// cexRun is run over raw slices at width 1 (k1 nil) or 2. "x sorts after y"
// is a lexicographic comparison of (word 0, [word 1,] TiePos words), which
// is the borrow out of the multiword subtraction y − x taken least
// significant word first: one SUB and a chain of SBBs, no branch and no
// flag-to-bool round trip. A pair swaps iff (x after y) == asc, i.e. iff the
// borrow mask differs from the desc mask; full ties borrow nothing, so they
// hold on ascending comparators and swap on descending ones, as in the
// per-access comparator. The only branch inside the loop is on the width,
// which is public.
func cexRun(e []Elem, k0, k1 []uint64, i, j, cnt int, desc uint64) {
	ei, ej := e[i:i+cnt], e[j:j+cnt]
	k0i, k0j := k0[i:i+cnt], k0[j:j+cnt]
	var k1i, k1j []uint64
	if k1 != nil {
		k1i, k1j = k1[i:i+cnt], k1[j:j+cnt]
	}
	for t := range ei {
		x, y := &ei[t], &ej[t]
		xh, xl := posWords(x)
		yh, yl := posWords(y)
		_, after := bits.Sub64(yl, xl, 0)
		_, after = bits.Sub64(yh, xh, after)
		if k1 != nil {
			_, after = bits.Sub64(k1j[t], k1i[t], after)
		}
		x0, y0 := k0i[t], k0j[t]
		_, after = bits.Sub64(y0, x0, after)
		m := -after ^ desc

		d := (x0 ^ y0) & m
		k0i[t], k0j[t] = x0^d, y0^d
		if k1 != nil {
			x1, y1 := k1i[t], k1j[t]
			d = (x1 ^ y1) & m
			k1i[t], k1j[t] = x1^d, y1^d
		}
		CondSwap(x, y, m)
	}
}

// runMin is the shortest run the raw plane and replay kernels walk as
// contiguous chunks (planeRun, replayRun); layers with shorter runs go one
// pair at a time (planePairs, replayPairs). Measured on one 2^9-pair
// layer over one key plane and one carried plane, recording: at stride 1,
// chunks of one pair cost 2–4× the pair-at-a-time loop; at stride 8 the
// two are level, and from stride 16 on the chunks win.
const runMin = 8

// planeRun is planes over raw slices, for runs of at least runMin pairs:
// one or two key planes (k1 nil or not), at most one carried plane (v nil
// or not) and an optional record (rec nil or not) — all public. It walks
// the pairs in chunks that lie in one run and whose bits lie in one record
// word, each chunk a pair of contiguous sub-slices, so the loop over a
// chunk's pairs does no index arithmetic; the chunk's direction mask is
// desc flipped when its run's offset i0 has the period bit set, which is
// arithmetic on public indices: (f | −f) >> 63 is f != 0 as a bit. "x
// sorts after y" is the borrow out of the multiword subtraction y − x, as
// in cexRun. Both positions of every plane are rewritten with
// mask-selected words, the swap masks' low bits gather in a register, and
// one masked store writes a chunk's bits, so no branch depends on the
// data. It is the portable path: with useAVX512, planes runs the same
// chunks on planeRunVector instead, 8 pairs per step, where VPCMPUQ
// computes "x after y" as an unsigned compare into a mask register (GT on
// k0, or EQ on k0 and GT on k1), KXORB flips it by the direction,
// VPBLENDMQ exchanges every plane under it and KMOVB yields its 8 record
// bits; a chunk's last group of fewer than 8 pairs loads and stores under
// a lane mask made from the chunk's public length by shifts, not a jump.
func planeRun(k0, k1, v []uint64, lo, stride, u0, u1, period int, desc uint64, rec []uint64, q int) {
	for u := u0; u < u1; {
		off, b := u&(stride-1), q+u
		cnt := min(stride-off, u1-u, 64-b&63)
		i0 := (u - off) << 1
		i, j := lo+i0+off, lo+i0+off+stride
		f := uint64(i0 & period)
		dir := desc ^ -((f | -f) >> 63)
		xs := k0[i : i+cnt]
		ys := k0[j:][:len(xs)]
		var x1, y1 []uint64
		if k1 != nil {
			x1, y1 = k1[i:][:len(xs)], k1[j:][:len(xs)]
		}
		var r uint64
		for t, x := range xs {
			y := ys[t]
			var after uint64
			if k1 != nil {
				_, after = bits.Sub64(y1[t], x1[t], 0)
			}
			_, after = bits.Sub64(y, x, after)
			m := -after ^ dir
			d := (x ^ y) & m
			xs[t], ys[t] = x^d, y^d
			if k1 != nil {
				x, y = x1[t], y1[t]
				d = (x ^ y) & m
				x1[t], y1[t] = x^d, y^d
			}
			r |= m & 1 << (t & 63)
		}
		if v != nil {
			xv, yv := v[i:][:len(xs)], v[j:][:len(xs)]
			for t, x := range xv {
				y := yv[t]
				d := (x ^ y) & -(r >> (t & 63) & 1)
				xv[t], yv[t] = x^d, y^d
			}
		}
		if rec != nil {
			w, s := &rec[b>>6], b&63
			*w = *w&^(^uint64(0)>>(64-cnt)<<s) | r<<s
		}
		u += cnt
	}
}

// replayRun is replay over one raw word plane, in planeRun's chunks: a
// chunk's bits are one word load, and each pair exchanges with mask
// arithmetic — d := (x^y)&m, m the bit widened to a mask — so the loads,
// stores and branches are those of every other outcome. It is the
// portable path: with useAVX512, replay runs replayRunVector, whose 8-lane
// steps take their swap mask from the record word by KMOVB and exchange by
// VPBLENDMQ, partial groups masked like planeRunVector's.
func replayRun(p []uint64, lo, stride, u0, u1 int, rec []uint64, q int) {
	for u := u0; u < u1; {
		off, b := u&(stride-1), q+u
		cnt := min(stride-off, u1-u, 64-b&63)
		i := lo + (u-off)<<1 + off
		r := rec[b>>6] >> (b & 63)
		xs := p[i : i+cnt]
		ys := p[i+stride:][:len(xs)]
		for t, x := range xs {
			y := ys[t]
			d := (x ^ y) & -(r >> (t & 63) & 1)
			xs[t], ys[t] = x^d, y^d
		}
		u += cnt
	}
}

// useAVX512 selects the vector chunk loops of the raw plane comparator and
// replay (planeRunAVX512 and replayRunAVX512, cexrun_amd64.s) over the
// portable Go loops planeRun and replayRun, which stay as their reference.
// It is set once from CPUID; tests flip it to run both paths.
var useAVX512 = hasAVX512()

// planeRunVector is planeRun on the vector kernel planeRunAVX512: it checks
// once that every pair u0 <= u < u1 lies inside each plane and its bit
// inside the record — the checks planeRun's slicing makes per chunk — and
// hands the whole range to the assembly.
func planeRunVector(k0, k1, v []uint64, lo, stride, u0, u1, period int, desc uint64, rec []uint64, q int) {
	if u0 >= u1 {
		return
	}
	checkRun(lo, stride, u0, u1, rec, q, k0, k1, v)
	planeRunAVX512(k0, k1, v, lo, stride, u0, u1, period, desc, rec, q)
}

// replayRunVector is replayRun on the vector kernel replayRunAVX512, with
// planeRunVector's checks.
func replayRunVector(p []uint64, lo, stride, u0, u1 int, rec []uint64, q int) {
	if u0 >= u1 {
		return
	}
	checkRun(lo, stride, u0, u1, rec, q, p)
	replayRunAVX512(p, lo, stride, u0, u1, rec, q)
}

// checkRun panics unless the first and last slots of the pairs u0 <= u < u1
// (u0 < u1) — slot lo+pos(u) and stride slots on, increasing with u — lie
// in every non-nil plane and, when rec is not nil, bits q+u0 and q+u1-1
// in rec. Every input is public.
func checkRun(lo, stride, u0, u1 int, rec []uint64, q int, planes ...[]uint64) {
	first := lo + (u0&^(stride-1))<<1 + u0&(stride-1)
	last := lo + ((u1-1)&^(stride-1))<<1 + (u1-1)&(stride-1) + stride
	for _, p := range planes {
		if p != nil {
			_, _ = p[first], p[last]
		}
	}
	if rec != nil {
		_, _ = rec[(q+u0)>>6], rec[(q+u1-1)>>6]
	}
}

// planePairs is planeRun one pair at a time, for layers whose runs are
// shorter than runMin pairs: a chunk of one or two pairs would cost more
// in setup than the pair. "x sorts after y" is the borrow out of the
// multiword subtraction y − x, as in cexRun, and pair u's direction mask
// is desc flipped when its run's offset i0 has the period bit set, which
// is arithmetic on public indices: (f | −f) >> 63 is f != 0 as a bit.
// Both positions of every plane are rewritten with mask-selected words and
// the swap mask's low bit is stored as bit q+u, so no branch depends on
// the data.
func planePairs(k0, k1, v []uint64, lo, stride, u0, u1, period int, desc uint64, rec []uint64, q int) {
	for u := u0; u < u1; u++ {
		i0 := (u &^ (stride - 1)) << 1
		i := lo + i0 + u&(stride-1)
		j := i + stride
		f := uint64(i0 & period)
		x0, y0 := k0[i], k0[j]
		var after uint64
		if k1 != nil {
			_, after = bits.Sub64(k1[j], k1[i], 0)
		}
		_, after = bits.Sub64(y0, x0, after)
		m := -after ^ desc ^ -((f | -f) >> 63)

		d := (x0 ^ y0) & m
		k0[i], k0[j] = x0^d, y0^d
		if k1 != nil {
			x1, y1 := k1[i], k1[j]
			d = (x1 ^ y1) & m
			k1[i], k1[j] = x1^d, y1^d
		}
		if v != nil {
			xv, yv := v[i], v[j]
			d = (xv ^ yv) & m
			v[i], v[j] = xv^d, yv^d
		}
		if rec != nil {
			b := q + u
			w := &rec[b>>6]
			*w = *w&^(1<<(b&63)) | m&1<<(b&63)
		}
	}
}

// replayPairs is replayRun one pair at a time, for the reason planePairs
// is: it exchanges with mask arithmetic — d := (x^y)&m, m the bit widened
// to a mask — so the loads, stores and branches are those of every other
// outcome.
func replayPairs(p []uint64, lo, stride, u0, u1 int, rec []uint64, q int) {
	for u := u0; u < u1; u++ {
		i := lo + (u&^(stride-1))<<1 + u&(stride-1)
		b := q + u
		m := -(rec[b>>6] >> (b & 63) & 1)
		x, y := p[i], p[i+stride]
		d := (x ^ y) & m
		p[i], p[i+stride] = x^d, y^d
	}
}

// planeTail is the plane mode of tail over raw slices, with planeRun's
// planes and comparator: each 8-slot block is one call of sort8 (sort8x2
// on two key planes), which compare-exchanges the block's key words in
// place and returns each layer's four swap bits, one move8 of the carried
// block by those bits, and one masked word update per layer's bits. Its
// branches test which planes and whether a record exist, all public.
func planeTail(k0, k1, v []uint64, base, o0, o1, period int, desc uint64, rec []uint64, q, h int) {
	for o := o0; o < o1; o += 8 {
		f := uint64(o & period)
		dir := desc ^ -((f | -f) >> 63)
		var r4, r2, r1 uint64
		if k1 == nil {
			r4, r2, r1 = sort8((*[8]uint64)(k0[base+o:]), dir)
		} else {
			r4, r2, r1 = sort8x2((*[8]uint64)(k0[base+o:]), (*[8]uint64)(k1[base+o:]), dir)
		}
		if v != nil {
			move8((*[8]uint64)(v[base+o:]), r4, r2, r1)
		}
		if rec != nil {
			b := q + o>>1
			setNibble(rec, b, r4)
			setNibble(rec, b+h, r2)
			setNibble(rec, b+2*h, r1)
		}
	}
}

// replayTail is the replay mode of tail over one raw word plane: per 8-slot
// block, the three layers' nibbles of bits and one unmove8.
func replayTail(p []uint64, base, o0, o1 int, rec []uint64, q, h int) {
	for o := o0; o < o1; o += 8 {
		b := q + o>>1
		unmove8((*[8]uint64)(p[base+o:]), getNibble(rec, b), getNibble(rec, b+h), getNibble(rec, b+2*h))
	}
}

// sort8 runs the butterfly layers at strides 4 (pairs 0–4, 1–5, 2–6, 3–7),
// 2 (0–2, 1–3, 4–6, 5–7) and 1 (0–1, 2–3, 4–5, 6–7) over the key block x
// in direction dir, and returns each layer's swap bits, pair t as bit t.
// The block's words are loaded once, exchanged in registers and stored
// once: no bounds check, no index arithmetic, no branch, and no layer
// waits on a store of the one before it.
func sort8(x *[8]uint64, dir uint64) (r4, r2, r1 uint64) {
	a0, a1, a2, a3, a4, a5, a6, a7 := x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
	var m0, m1, m2, m3 uint64
	a0, a4, m0 = cs(a0, a4, dir)
	a1, a5, m1 = cs(a1, a5, dir)
	a2, a6, m2 = cs(a2, a6, dir)
	a3, a7, m3 = cs(a3, a7, dir)
	r4 = nibble(m0, m1, m2, m3)
	a0, a2, m0 = cs(a0, a2, dir)
	a1, a3, m1 = cs(a1, a3, dir)
	a4, a6, m2 = cs(a4, a6, dir)
	a5, a7, m3 = cs(a5, a7, dir)
	r2 = nibble(m0, m1, m2, m3)
	a0, a1, m0 = cs(a0, a1, dir)
	a2, a3, m1 = cs(a2, a3, dir)
	a4, a5, m2 = cs(a4, a5, dir)
	a6, a7, m3 = cs(a6, a7, dir)
	x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7] = a0, a1, a2, a3, a4, a5, a6, a7
	return r4, r2, nibble(m0, m1, m2, m3)
}

// sort8x2 is sort8 on the two-word keys of the blocks x (more significant)
// and y.
func sort8x2(x, y *[8]uint64, dir uint64) (r4, r2, r1 uint64) {
	a0, a1, a2, a3, a4, a5, a6, a7 := x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
	b0, b1, b2, b3, b4, b5, b6, b7 := y[0], y[1], y[2], y[3], y[4], y[5], y[6], y[7]
	var m0, m1, m2, m3 uint64
	a0, a4, b0, b4, m0 = cs2(a0, a4, b0, b4, dir)
	a1, a5, b1, b5, m1 = cs2(a1, a5, b1, b5, dir)
	a2, a6, b2, b6, m2 = cs2(a2, a6, b2, b6, dir)
	a3, a7, b3, b7, m3 = cs2(a3, a7, b3, b7, dir)
	r4 = nibble(m0, m1, m2, m3)
	a0, a2, b0, b2, m0 = cs2(a0, a2, b0, b2, dir)
	a1, a3, b1, b3, m1 = cs2(a1, a3, b1, b3, dir)
	a4, a6, b4, b6, m2 = cs2(a4, a6, b4, b6, dir)
	a5, a7, b5, b7, m3 = cs2(a5, a7, b5, b7, dir)
	r2 = nibble(m0, m1, m2, m3)
	a0, a1, b0, b1, m0 = cs2(a0, a1, b0, b1, dir)
	a2, a3, b2, b3, m1 = cs2(a2, a3, b2, b3, dir)
	a4, a5, b4, b5, m2 = cs2(a4, a5, b4, b5, dir)
	a6, a7, b6, b7, m3 = cs2(a6, a7, b6, b7, dir)
	x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7] = a0, a1, a2, a3, a4, a5, a6, a7
	y[0], y[1], y[2], y[3], y[4], y[5], y[6], y[7] = b0, b1, b2, b3, b4, b5, b6, b7
	return r4, r2, nibble(m0, m1, m2, m3)
}

// move8 exchanges the pairs of the carried block w that sort8 exchanged,
// from the swap bits it returned, in registers like sort8.
func move8(w *[8]uint64, r4, r2, r1 uint64) {
	a0, a1, a2, a3, a4, a5, a6, a7 := w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]
	a0, a4 = sw(a0, a4, r4)
	a1, a5 = sw(a1, a5, r4>>1)
	a2, a6 = sw(a2, a6, r4>>2)
	a3, a7 = sw(a3, a7, r4>>3)
	a0, a2 = sw(a0, a2, r2)
	a1, a3 = sw(a1, a3, r2>>1)
	a4, a6 = sw(a4, a6, r2>>2)
	a5, a7 = sw(a5, a7, r2>>3)
	a0, a1 = sw(a0, a1, r1)
	a2, a3 = sw(a2, a3, r1>>1)
	a4, a5 = sw(a4, a5, r1>>2)
	a6, a7 = sw(a6, a7, r1>>3)
	w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7] = a0, a1, a2, a3, a4, a5, a6, a7
}

// unmove8 undoes move8(w, r4, r2, r1): the layers in reverse.
func unmove8(w *[8]uint64, r4, r2, r1 uint64) {
	a0, a1, a2, a3, a4, a5, a6, a7 := w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]
	a0, a1 = sw(a0, a1, r1)
	a2, a3 = sw(a2, a3, r1>>1)
	a4, a5 = sw(a4, a5, r1>>2)
	a6, a7 = sw(a6, a7, r1>>3)
	a0, a2 = sw(a0, a2, r2)
	a1, a3 = sw(a1, a3, r2>>1)
	a4, a6 = sw(a4, a6, r2>>2)
	a5, a7 = sw(a5, a7, r2>>3)
	a0, a4 = sw(a0, a4, r4)
	a1, a5 = sw(a1, a5, r4>>1)
	a2, a6 = sw(a2, a6, r4>>2)
	a3, a7 = sw(a3, a7, r4>>3)
	w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7] = a0, a1, a2, a3, a4, a5, a6, a7
}

// cs compare-exchanges the key words x and y in direction dir — it swaps
// them iff "x sorts after y", the borrow out of y − x, differs from dir —
// and returns them with the swap mask.
func cs(x, y, dir uint64) (uint64, uint64, uint64) {
	_, after := bits.Sub64(y, x, 0)
	m := -after ^ dir
	d := (x ^ y) & m
	return x ^ d, y ^ d, m
}

// cs2 is cs on the two-word keys (x, xl) and (y, yl), x and y the more
// significant words.
func cs2(x, y, xl, yl, dir uint64) (uint64, uint64, uint64, uint64, uint64) {
	_, after := bits.Sub64(yl, xl, 0)
	_, after = bits.Sub64(y, x, after)
	m := -after ^ dir
	d, dl := (x^y)&m, (xl^yl)&m
	return x ^ d, y ^ d, xl ^ dl, yl ^ dl, m
}

// sw exchanges x and y iff the low bit of r is set.
func sw(x, y, r uint64) (uint64, uint64) {
	d := (x ^ y) & -(r & 1)
	return x ^ d, y ^ d
}

// nibble packs the low bits of four swap masks, the first lowest.
func nibble(m0, m1, m2, m3 uint64) uint64 {
	return m0&1 | m1&1<<1 | m2&1<<2 | m3&1<<3
}

// setNibble writes the four bits r as bits b..b+3 of rec (b a multiple of
// 4) with one masked word update; getNibble reads them back.
func setNibble(rec []uint64, b int, r uint64) {
	w, s := &rec[b>>6], b&60
	*w = *w&^(15<<s) | r<<s
}

func getNibble(rec []uint64, b int) uint64 { return rec[b>>6] >> (b & 60) & 15 }
