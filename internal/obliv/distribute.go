package obliv

import (
	"fmt"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
)

// This file implements oblivious distribution — the expansion dual of the
// tight compaction at the heart of the relational operators. Where
// compaction sends marked elements to the front of an array, distribution
// spreads elements to *computed destination offsets* and propagates each
// one rightward across the gap to the next destination, which is exactly
// the duplication step a many-to-many join's oblivious expansion needs
// (each source's copy count is the width of its destination span). The
// construction follows the [CS17]-style recipe the paper's §C.1 bin
// placement uses — one data-independent ordering pass, one prefix scan,
// and fixed elementwise passes — so the trace is a function of
// (len(sources), outLen) only.

// passGrain is the leaf size of the fixed elementwise passes and the
// comparator count of each Layer leaf (a merge leaf is 2^10 comparators,
// 2^11 positions) outside metered mode. The expansion path runs these
// passes over work relations of 2^21+ slots; at the old default grain of
// 64 the fork bookkeeping (two closure allocations and a deque round-trip
// per task) rivaled the loop bodies themselves and was the
// serial-equivalent tail that made extra workers a net loss. 2^10 items per
// leaf is past the point where stealing pays while a 2^20 pass still splits
// 2^10 ways. Metered runs are pinned to grain 1 by forkjoin.grainFor, so
// the recorded trace (fork events included) never moves when this is
// retuned.
const passGrain = 1 << 10

// distVal is the carrier of the distribution's "latest participant wins"
// prefix scan: after the inclusive scan, position p holds the participating
// source with the largest destination at or before p.
type distVal struct {
	src Elem
	d   uint64
	has bool
}

// distOp is the associative combine: the later defined participant wins.
func distOp(x, y distVal) distVal {
	if y.has {
		return y
	}
	return distVal{src: x.src, d: x.d, has: x.has}
}

// DistributeOrdered realizes oblivious distribution with propagation for
// destinations that come out of a prefix sum over the source array. Source
// i of sources *participates* iff it is Real, participates(sources[i])
// holds, and dests[i] < outLen (dests is indexed identically to sources).
// Conceptually the participants are placed at their destinations in an
// output of outLen slots and then propagated rightward: slot s is governed
// by the participant with the largest destination d <= s.
//
// Contract:
//
//   - dests[i] clamped to outLen must be non-decreasing over [0, len(sources));
//   - participating destinations must be strictly increasing, and a
//     non-participant between two participants must carry a destination
//     between theirs — exactly what an exclusive prefix sum of per-source
//     span widths yields.
//
// That order is what makes a full sort unnecessary: the key array built
// below is one ascending run (the sources) followed by one descending run
// (the slots, laid out reversed), i.e. bitonic, and a single bitonic merge
// (log2(wLen) compare-exchange layers) interleaves participants and slots.
// Violating the order contract yields an unspecified (but still oblivious —
// the comparator sequence is fixed) permutation.
//
// The returned array has length NextPow2(len(sources)+outLen) and holds,
// in unspecified order,
//
//   - one element per output slot s: apply(s, d, src, ok), where (src, d)
//     is the governing participant and ok is false when no participant
//     governs s (slots before the first destination, or no participants at
//     all);
//   - every non-participating source, passed through unchanged;
//   - fillers elsewhere (participants are consumed into their slots).
//
// Slot order is not restored: every caller in this module feeds the result
// into another data-independent sort, which would make a restoring sort
// here pure waste. apply must be a pure function of its arguments (register
// arithmetic only). outLen must be in [1, MaxKey/2): destinations become
// schedule words with two class bits below the InfKey sentinel. The access
// pattern depends only on (len(sources), outLen).
func DistributeOrdered(
	c *forkjoin.Ctx, sp *mem.Space,
	sources *mem.Array[Elem], dests *mem.Array[uint64], outLen int,
	participates func(Elem) bool,
	apply func(slot, d uint64, src Elem, ok bool) Elem,
) *mem.Array[Elem] {
	if outLen < 1 || uint64(outLen) >= MaxKey>>1 {
		panic(fmt.Sprintf("obliv: DistributeOrdered outLen %d out of range [1, 2^61)", outLen))
	}
	if dests.Len() < sources.Len() {
		panic("obliv: DistributeOrdered dests shorter than sources")
	}
	nIn := sources.Len()
	wLen := NextPow2(nIn + outLen)
	w := mem.Alloc[Elem](sp, wLen)
	ks := AllocKeySchedule(sp, wLen, 1)
	plane := ks.Plane(0)
	lim := uint64(outLen)

	// Two class bits under the destination word make the merge's key order
	// the semantic order above while preserving the bitonic shape: a
	// participant bound for d keys d<<2|1, the slot it governs keys s<<2|2
	// (so the participant sorts immediately before its first slot), and a
	// non-participant keys its clamped running offset with class 0 (so it
	// never splits a participant from its span). Sources ascend because the
	// clamped offsets do; slots are written reversed (position wLen-1-s
	// holds slot s) with InfKey padding above them, so the tail descends —
	// one run up, one run down, and the whole array is bitonic by
	// construction. Equal keys (non-participants sharing an offset, the
	// padding) order by TiePos, which never moves a key word out of order,
	// so the merge still sorts the keys.
	forkjoin.ParallelRange(c, 0, nIn, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := sources.Get(c, i)
			d := dests.Get(c, i)
			c.Op(1)
			cd := d
			if cd > lim {
				cd = lim
			}
			key := cd << 2
			if e.Kind == Real && d < lim && participates(e) {
				key = d<<2 | 1
			}
			w.Set(c, i, e)
			plane.Set(c, i, key)
		}
	})
	forkjoin.ParallelRange(c, nIn, wLen-outLen, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for p := lo; p < hi; p++ {
			w.Set(c, p, Elem{})
			plane.Set(c, p, InfKey)
		}
	})
	forkjoin.ParallelRange(c, 0, outLen, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for s := lo; s < hi; s++ {
			w.Set(c, wLen-1-s, Elem{Kind: Temp, Aux: uint64(s)})
			plane.Set(c, wLen-1-s, uint64(s)<<2|2)
		}
	})

	mergeBitonic(c, w, ks, wLen)

	// Latest-participant scan: position p learns the participant with the
	// largest destination at or before p. The schedule moved through the
	// merge in lockstep with the elements, so plane[p] is the key — and
	// hence the class and destination — of the element now at p.
	pv := mem.Alloc[distVal](sp, wLen)
	forkjoin.ParallelRange(c, 0, wLen, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for p := lo; p < hi; p++ {
			e := w.Get(c, p)
			key := plane.Get(c, p)
			c.Op(1)
			v := distVal{}
			if key&3 == 1 {
				v = distVal{src: e, d: key >> 2, has: true}
			}
			pv.Set(c, p, v)
		}
	})
	ScanOp(c, sp, pv, distOp, distVal{}, true)

	// Slots adopt their governing participant via apply; consumed
	// participants clear to fillers; everything else passes through.
	forkjoin.ParallelRange(c, 0, wLen, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for p := lo; p < hi; p++ {
			e := w.Get(c, p)
			key := plane.Get(c, p)
			v := pv.Get(c, p)
			c.Op(1)
			switch key & 3 {
			case 1:
				// Consumed participant: cleared to a filler.
				e = Elem{}
			case 2:
				e = apply(key>>2, v.d, v.src, v.has)
			default:
				// Non-participating source (class 0) or InfKey padding
				// (class 3): unchanged.
			}
			w.Set(c, p, e)
		}
	})
	return w
}

// mergeBitonic sorts the bitonic sequence a[0:n) ascending by its width-1
// cached key schedule: one Merge, a half-cleaner cascade of log2(n)
// data-independent layers of n/2 comparators. n must be a power of two.
// The comparator sequence is a function of n alone.
func mergeBitonic(c *forkjoin.Ctx, a *mem.Array[Elem], ks *KeySchedule, n int) {
	Merge(c, NewCexKernel(c, a, ks), 0, 1, n, n, false)
}

// mergePlanes is mergeBitonic over the word planes of ws with no element
// array: the first plane is the key, the rest ride along, and rec
// (mergeRecordWords(n) words) receives one swap bit per comparator — bit
// l·n/2 + v for comparator v of layer l — from which unmergeBitonic undoes
// the merge.
func mergePlanes(c *forkjoin.Ctx, ws *KeySchedule, n int, rec *mem.Array[uint64]) {
	Merge(c, NewCexKernelPlanes(c, ws, 1, rec), 0, 1, n, n, false)
}

// unmergeBitonic undoes mergePlanes(c, _, n, rec) on the word planes of ws:
// it replays the recorded layers in reverse, stride 1 up to n/2,
// exchanging exactly the pairs the merge exchanged, so every word of every
// plane returns to the position it held before the merge. No key is read
// — the planes carry whatever the caller wants back (send-receive's routed
// values). The access pattern is a function of n and the width of ws
// alone.
func unmergeBitonic(c *forkjoin.Ctx, ws *KeySchedule, n int, rec *mem.Array[uint64]) {
	k := NewCexKernelReplay(c, ws, rec)
	j, l := 1, Log2(n)-1 // l: the merge's index of the layer at stride j
	if k.fuses(true, n, 0, 0) {
		tail(c, k, (l-2)*(n>>1), n, 0)
		j, l = 8, l-3
	}
	for ; j < n; j, l = j<<1, l-1 {
		Layer(c, k, l*(n>>1), 1, n, n>>1, j, false)
	}
}

// mergeRecordWords is the length of mergePlanes's swap record for n
// elements: log2(n) layers of n/2 bits, packed 64 to a word.
func mergeRecordWords(n int) int {
	return (Log2(n)*(n>>1) + 63) >> 6
}
