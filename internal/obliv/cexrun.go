package obliv

import (
	"math/bits"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
)

// This file holds the block form of the cached-key comparator. A sorting
// network's leaf is a fixed sequence of layers, and a layer a fixed sequence
// of runs — compare-exchanges of the pairs (i+t, i+stride+t), t = 0..cnt-1,
// all in one direction — so the executor question ("instrumented or not")
// is asked once per leaf, when the CexKernel is made, instead of once per
// word. Under the metered executor a run is literally a loop over
// CompareExchangeCachedW: that per-access comparator is the specification.
// Under the serial and pool executors widths 1 and 2 go over the raw slices
// with a comparator that never branches on the comparison outcome: the
// outcome becomes an all-ones/all-zero mask and both positions are
// rewritten with mask-selected words, so neither the address sequence nor
// the branch history of a leaf depends on the data. Wider schedules (the
// relational layer builds none) take the per-access loop under every
// executor.

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

// CexKernel is the cached-key comparator bound to one block of one
// executor: NewCexKernel decides once whether runs go through the
// per-access specification or over the raw slices.
type CexKernel struct {
	c  *forkjoin.Ctx
	a  *mem.Array[Elem]
	ks *KeySchedule

	// Raw views, nil when runs take the per-access path.
	e      []Elem
	k0, k1 []uint64
}

// NewCexKernel binds the comparator to a, ks (indexed identically) and the
// executor behind c.
func NewCexKernel(c *forkjoin.Ctx, a *mem.Array[Elem], ks *KeySchedule) CexKernel {
	k := CexKernel{c: c, a: a, ks: ks}
	if w := len(ks.planes); w <= 2 {
		if e := a.Raw(c); e != nil {
			k.e, k.k0 = e, ks.planes[0].Raw(c)
			if w == 2 {
				k.k1 = ks.planes[1].Raw(c)
			}
		}
	}
	return k
}

// Run compare-exchanges the pairs (i+t, i+stride+t) for t = 0..cnt-1 in
// ascending t, every pair ordered ascending by cached key if asc and
// descending otherwise: exactly cnt calls of CompareExchangeCachedW.
func (k *CexKernel) Run(i, stride, cnt int, asc bool) {
	if k.e == nil {
		for t := 0; t < cnt; t++ {
			CompareExchangeCachedW(k.c, k.a, k.ks, i+t, i+stride+t, asc)
		}
		return
	}
	var desc uint64
	if !asc {
		desc = ^uint64(0)
	}
	cexRun(k.e, k.k0, k.k1, i, i+stride, cnt, desc)
}

// runRecord is Run ascending at width 1 that also records every pair's
// outcome into the packed words of rec: bit q+t is set iff pair t swapped.
// Under the metered executor each bit is a read and a rewrite of its word
// after the comparator, at an address fixed by q+t; the raw kernel writes
// the bit with mask arithmetic and never branches on it.
func (k *CexKernel) runRecord(i, stride, cnt int, rec *mem.Array[uint64], q int) {
	if k.e == nil {
		for t := 0; t < cnt; t++ {
			var bit uint64
			if CompareExchangeCachedW(k.c, k.a, k.ks, i+t, i+stride+t, true) {
				bit = 1
			}
			b := q + t
			w := rec.Get(k.c, b>>6)
			rec.Set(k.c, b>>6, w&^(1<<(b&63))|bit<<(b&63))
		}
		return
	}
	cexRunRecord(k.e, k.k0, i, i+stride, cnt, rec.Raw(k.c), q)
}

// Layer runs one butterfly layer over the block [lo, lo+n): for every
// i0 = 0, 2·stride, 4·stride, … < n the run of stride pairs at lo+i0, in
// ascending i0. A run is ordered ascending if (i0&period == 0) == asc and
// descending otherwise — period 0 is a merge layer (one direction), period
// k the layer of a bitonic sort building sorted sequences of length k.
func (k *CexKernel) Layer(lo, n, stride, period int, asc bool) {
	for i0 := 0; i0 < n; i0 += 2 * stride {
		k.Run(lo+i0, stride, stride, (i0&period == 0) == asc)
	}
}

// cexRun is Run over raw slices at width 1 (k1 nil) or 2. "x sorts after y"
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

// cexRunRecord is cexRun at width 1, ascending, with the swap mask's low bit
// stored as bit q+t of rec for pair t.
func cexRunRecord(e []Elem, k0 []uint64, i, j, cnt int, rec []uint64, q int) {
	ei, ej := e[i:i+cnt], e[j:j+cnt]
	k0i, k0j := k0[i:i+cnt], k0[j:j+cnt]
	for t := range ei {
		x, y := &ei[t], &ej[t]
		xh, xl := posWords(x)
		yh, yl := posWords(y)
		_, after := bits.Sub64(yl, xl, 0)
		_, after = bits.Sub64(yh, xh, after)
		x0, y0 := k0i[t], k0j[t]
		_, after = bits.Sub64(y0, x0, after)
		m := -after

		d := (x0 ^ y0) & m
		k0i[t], k0j[t] = x0^d, y0^d
		CondSwap(x, y, m)
		b := q + t
		w := &rec[b>>6]
		*w = *w&^(1<<(b&63)) | after<<(b&63)
	}
}

// uncexRun replays recorded pairs over raw slices: pair (i+t, j+t) is
// exchanged iff bit q+t of rec is set, through CondSwap, so the loads,
// stores and branches are those of every other outcome.
func uncexRun(e []Elem, i, j, cnt int, rec []uint64, q int) {
	ei, ej := e[i:i+cnt], e[j:j+cnt]
	for t := range ei {
		b := q + t
		CondSwap(&ei[t], &ej[t], -(rec[b>>6] >> (b & 63) & 1))
	}
}
