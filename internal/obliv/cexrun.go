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
// (TestCompiledKernelsBranchFree checks the compiled raw kernels). Wider
// schedules take the per-access loop under every executor.

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
// Recording, layer l's bits start at q + l·nb·m/2.
func Merge(c *forkjoin.Ctx, k CexKernel, q, nb, gap, m int, alt bool) {
	for j := m >> 1; j > 0; j >>= 1 {
		Layer(c, k, q, nb, gap, m>>1, j, alt)
		q += nb * m >> 1
	}
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
// planeRun.
func (k *CexKernel) planes(lo, stride, u0, u1, period int, asc bool, q int) {
	if k.k0 != nil {
		planeRun(k.k0, k.k1, k.v, lo, stride, u0, u1, period, descMask(asc), k.bits, q)
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
// it is replayRun once per plane.
func (k *CexKernel) replay(lo, stride, u0, u1, q int) {
	if k.k0 != nil {
		replayRun(k.k0, lo, stride, u0, u1, k.bits, q)
		if k.k1 != nil {
			replayRun(k.k1, lo, stride, u0, u1, k.bits, q)
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
// bits at q.., pair t of the run at i0 as bit q + i0/2 + t. It is the
// serial leaf loop of the bitonic sorts: unlike the forked Layer it does
// no per-run index arithmetic, which matters at strides 1 and 2. The plane
// and replay modes take the whole layer in one loop (a word move is too
// cheap to pay a call per run of one pair).
func (k *CexKernel) Layer(lo, n, stride, period int, asc bool, q int) {
	if k.a == nil {
		k.pairs(lo, stride, 0, n>>1, period, asc, q)
		return
	}
	for i0 := 0; i0 < n; i0 += 2 * stride {
		k.run(lo+i0, stride, stride, (i0&period == 0) == asc)
	}
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

// planeRun is planes over raw slices: one or two key planes (k1 nil or
// not), at most one carried plane (v nil or not) and an optional record
// (rec nil or not) — all public. "x sorts after y" is the borrow out of the
// multiword subtraction y − x, as in cexRun, and pair u's direction mask
// is desc flipped when its run's offset i0 has the period bit set, which
// is arithmetic on public indices: (f | −f) >> 63 is f != 0 as a bit.
// Both positions of every plane are rewritten with mask-selected words and
// the swap mask's low bit is stored as bit q+u, so no branch depends on
// the data.
func planeRun(k0, k1, v []uint64, lo, stride, u0, u1, period int, desc uint64, rec []uint64, q int) {
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

// replayRun is replay over one raw word plane, exchanging with mask
// arithmetic — d := (x^y)&m, m the bit widened to a mask — so the loads,
// stores and branches are those of every other outcome.
func replayRun(p []uint64, lo, stride, u0, u1 int, rec []uint64, q int) {
	for u := u0; u < u1; u++ {
		i := lo + (u&^(stride-1))<<1 + u&(stride-1)
		b := q + u
		m := -(rec[b>>6] >> (b & 63) & 1)
		x, y := p[i], p[i+stride]
		d := (x ^ y) & m
		p[i], p[i+stride] = x^d, y^d
	}
}
