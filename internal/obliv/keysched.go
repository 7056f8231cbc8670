package obliv

import (
	"fmt"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
)

// This file implements the key-schedule fast path for the sorting-network
// primitives. A sort's comparator schedule is data-independent (the core
// property of the paper's §E.1 bitonic construction and of Batcher's
// networks), so the key of every element can be materialized once, up
// front, into a parallel word array — one instrumented linear pass — and
// the network then compares cached uint64 words instead of re-deriving the
// key from the element twice per comparator. The cached keys move through
// the network in lockstep with the elements, and the access pattern remains
// a function of n only.
//
// Schedules are width-parameterized: a KeySchedule caches W words per
// element and the cached comparator orders elements lexicographically by
// their word vectors (word 0 most significant), then by TiePos. Nothing in
// the networks' comparator schedules depends on W — widening the key only
// widens each comparator's fixed read/write set — so a width-W sort is
// exactly as oblivious as a width-1 sort.

// MaxScheduleWidth bounds the words per cached key (the comparator buffers
// key vectors on the stack). Relational schedules need at most one word
// per key column, far below this.
const MaxScheduleWidth = 8

// TieBreak names a tie-break rule. There is one: TiePos.
type TieBreak uint8

// TiePos is the tie-break of every keyed sort: elements whose cached key
// vectors are equal order by their (Kind, Tag, Aux) triple — fillers after
// real elements, then the side tag, then the original position — read from
// the element structs the comparator already holds in registers (PosAfter).
// Keyed sorts are therefore stable in first-occurrence order without a
// dedicated position plane of memory traffic, and every backend realizes
// the same strict order. The rule reads no memory, so it cannot move a
// trace.
const TiePos TieBreak = 1

// KeySchedule is a width-W cached key schedule over one backing word array
// in strided (plane-major) layout: word w of element i lives at
// backing[w*n + i], exposed as per-word plane views indexed identically to
// the element array. Plane 0 is the most significant word of the
// lexicographic key; full-vector ties resolve by TiePos.
type KeySchedule struct {
	planes []*mem.Array[uint64]
	// Tie is unread: every schedule breaks ties by TiePos. It remains, with
	// TieBreak and TiePos, only for callers outside this module that still
	// assign it.
	Tie TieBreak
}

// NewKeySchedule carves a width-w schedule for n elements out of backing
// (which must hold at least n*w words). The backing array may be longer —
// arenas reuse one maximal array across passes of different widths.
func NewKeySchedule(backing *mem.Array[uint64], n, w int) *KeySchedule {
	if w < 1 || w > MaxScheduleWidth {
		panic(fmt.Sprintf("obliv: key-schedule width %d out of range [1, %d]", w, MaxScheduleWidth))
	}
	if backing.Len() < n*w {
		panic("obliv: key-schedule backing too short")
	}
	ks := &KeySchedule{planes: make([]*mem.Array[uint64], w)}
	for p := 0; p < w; p++ {
		ks.planes[p] = backing.View(p*n, n)
	}
	return ks
}

// AllocKeySchedule allocates a fresh width-w schedule for n elements.
func AllocKeySchedule(sp *mem.Space, n, w int) *KeySchedule {
	return NewKeySchedule(mem.Alloc[uint64](sp, n*w), n, w)
}

// Width returns the number of words per cached key.
func (ks *KeySchedule) Width() int { return len(ks.planes) }

// Len returns the number of elements the schedule covers.
func (ks *KeySchedule) Len() int { return ks.planes[0].Len() }

// Plane returns the word-w plane (indexed identically to the element
// array).
func (ks *KeySchedule) Plane(w int) *mem.Array[uint64] { return ks.planes[w] }

// View returns the schedule restricted to elements [lo, lo+n), aliasing the
// parent exactly like mem.Array.View.
func (ks *KeySchedule) View(lo, n int) *KeySchedule {
	v := &KeySchedule{planes: make([]*mem.Array[uint64], len(ks.planes))}
	for p := range ks.planes {
		v.planes[p] = ks.planes[p].View(lo, n)
	}
	return v
}

// BuildKeySchedule materializes the key words of a[lo:lo+n) into
// ks[lo:lo+n) in one fixed elementwise pass (the "keysched" pass). key must
// fill out[0:ks.Width()) with the element's lexicographic key words (word 0
// most significant); it is handed a reusable buffer and must not retain it.
// ks is indexed identically to a: ks word w of position i caches word w of
// the key of a[i].
func BuildKeySchedule(c *forkjoin.Ctx, a *mem.Array[Elem], ks *KeySchedule, lo, n int, key func(e Elem, out []uint64)) {
	w := ks.Width()
	forkjoin.ParallelRange(c, 0, n, passGrain, func(c *forkjoin.Ctx, from, to int) {
		var buf [MaxScheduleWidth]uint64
		out := buf[:w]
		for i := from; i < to; i++ {
			e := a.Get(c, lo+i)
			c.Op(1) // the key derivation
			key(e, out)
			for p := 0; p < w; p++ {
				ks.planes[p].Set(c, lo+i, out[p])
			}
		}
	})
}

// PosAfter reports whether x sorts strictly after y under the TiePos
// tie-break: fillers after real elements, then by side tag, then by
// original position. Pure register arithmetic on values the comparator
// already holds. It is exported for sort backends implemented outside this
// package (the shuffle-then-sort composition applies the same rule in its
// insecure comparison phase so both backends realize the same order).
func PosAfter(x, y Elem) bool {
	xf, yf := x.Kind != Real, y.Kind != Real
	if xf != yf {
		return xf
	}
	if x.Tag != y.Tag {
		return x.Tag > y.Tag
	}
	return x.Aux > y.Aux
}

// CompareExchangeCachedW is the cached-key comparator: it orders positions
// i and j of a by the lexicographic order of their cached key vectors, equal
// vectors by TiePos (ascending if asc), keeping every plane of ks in
// lockstep with a, and reports whether it exchanged them. All words of both
// positions are read and rewritten unconditionally, so the access pattern
// is a function of (i, j, width) only — the tie-break reads no additional
// memory.
func CompareExchangeCachedW(c *forkjoin.Ctx, a *mem.Array[Elem], ks *KeySchedule, i, j int, asc bool) bool {
	if len(ks.planes) == 2 {
		// Width-2 fast path: scalar registers, no stack vectors.
		x := a.Get(c, i)
		y := a.Get(c, j)
		p0, p1 := ks.planes[0], ks.planes[1]
		kx0, kx1 := p0.Get(c, i), p1.Get(c, i)
		ky0, ky1 := p0.Get(c, j), p1.Get(c, j)
		c.Op(1) // the comparison
		gt := kx0 > ky0
		if kx0 == ky0 {
			gt = kx1 > ky1
			if kx1 == ky1 {
				gt = PosAfter(x, y)
			}
		}
		if gt == asc {
			a.Set(c, i, y)
			a.Set(c, j, x)
			p0.Set(c, i, ky0)
			p0.Set(c, j, kx0)
			p1.Set(c, i, ky1)
			p1.Set(c, j, kx1)
		} else {
			a.Set(c, i, x)
			a.Set(c, j, y)
			p0.Set(c, i, kx0)
			p0.Set(c, j, ky0)
			p1.Set(c, i, kx1)
			p1.Set(c, j, ky1)
		}
		return gt == asc
	}
	w := len(ks.planes)
	x := a.Get(c, i)
	y := a.Get(c, j)
	var kx, ky [MaxScheduleWidth]uint64
	for p := 0; p < w; p++ {
		kx[p] = ks.planes[p].Get(c, i)
		ky[p] = ks.planes[p].Get(c, j)
	}
	c.Op(1) // the comparison
	gt := PosAfter(x, y)
	for p := 0; p < w; p++ {
		if kx[p] != ky[p] {
			gt = kx[p] > ky[p]
			break
		}
	}
	swap := gt == asc
	if swap {
		x, y = y, x
		kx, ky = ky, kx
	}
	a.Set(c, i, x)
	a.Set(c, j, y)
	for p := 0; p < w; p++ {
		ks.planes[p].Set(c, i, kx[p])
		ks.planes[p].Set(c, j, ky[p])
	}
	return swap
}

// ScheduledSorter is implemented by sorters that can run against a
// precomputed key schedule (the keysched fast path). SortScheduled sorts
// a[lo:lo+n) ascending by the cached lexicographic keys ks[lo:lo+n) (ks is
// indexed identically to a), equal keys by TiePos, keeping every plane of
// ks in lockstep. sp is the address space backends allocate working memory
// from (the in-place networks never touch it; the shuffle-then-sort
// backend draws its routing buffers and tie plane from it). scr and kscr
// are caller-provided scratch — scr of length >= n, kscr of ks's width
// covering >= n elements — that must not alias a or ks; sorters that sort
// strictly in place ignore them (nil is then permitted).
//
// This is the one sorter seam of element sorts: the relational and serving
// layers call SortScheduled, and the paper reproduction's closure-key call
// sites (BinPlace, core's REC-ORBA / ORP / REC-SORT, internal/oram's path
// sorts, the experiments) call Sort on the same configured backend. Word-plane
// sorts are not sorter calls: the PRAM and graph layer's, send-receive's
// union (SendReceive, SendReceivePlanes: Join, Lookup, the ORAM's
// multicast) and GroupTotals' run the cache-agnostic bitonic network
// directly (bitonic.SortRecorded), whatever the backend. Sort sorts
// a[lo:lo+n) ascending by the one-word key closure, equal keys by TiePos:
// every implementation builds the key plane in one fixed elementwise pass
// and runs a keyed network (SortKeyed; the shuffle backend's is the
// cache-agnostic one), so every sort compares cached key words, whichever
// method a caller uses. Sort allocates its
// key planes and element scratch from sp, and it may run concurrently on
// one sorter (core's ORP sorts its bins in parallel), so it must not touch
// per-run state of the sorter.
type ScheduledSorter interface {
	Name() string
	Sort(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[Elem], lo, n int, key func(Elem) uint64)
	SortScheduled(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[Elem], ks *KeySchedule, scr *mem.Array[Elem], kscr *KeySchedule, lo, n int)
}

var _ ScheduledSorter = SelectionNetwork{}

// SortScheduled implements ScheduledSorter for the selection network: all
// pairs through the cached comparator, any n, space and scratch ignored —
// the test oracle for every ScheduledSorter call site.
func (SelectionNetwork) SortScheduled(c *forkjoin.Ctx, _ *mem.Space, a *mem.Array[Elem], ks *KeySchedule, _ *mem.Array[Elem], _ *KeySchedule, lo, n int) {
	for i := 0; i < n-1; i++ {
		for j := i + 1; j < n; j++ {
			CompareExchangeCachedW(c, a, ks, lo+i, lo+j, true)
		}
	}
}

// SortKeyed sorts a[0:n) ascending by the single-word closure key through
// srt: it allocates from sp (the space srt also draws its working memory
// from) a key plane, its scratch twin and the element scratch, in that
// order (addresses are part of the trace), materializes the key words in
// one fixed elementwise pass, and sorts by the cached words. Key ties
// resolve by the elements' (Kind, Tag, Aux) triple (TiePos), never by
// network topology, so the output permutation is a deterministic function
// of the input on every backend.
func SortKeyed(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[Elem], n int, key func(Elem) uint64, srt ScheduledSorter) {
	if n <= 1 {
		return
	}
	ks, kscr := AllocKeySchedule(sp, n, 1), AllocKeySchedule(sp, n, 1)
	scr := mem.Alloc[Elem](sp, n)
	BuildKeySchedule(c, a, ks, 0, n, func(e Elem, out []uint64) { out[0] = key(e) })
	srt.SortScheduled(c, sp, a, ks, scr, kscr, 0, n)
}
