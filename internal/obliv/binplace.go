package obliv

import (
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
)

// BinPlace implements the oblivious bin placement functionality of §C.1
// (Chan–Shi): each real element of in carries a destination bin
// groupOf(e) ∈ [beta]; the elements are moved to their bins, and every bin
// is padded with fillers to capacity binZ. The concatenated bins are
// written to out (which must have length beta*binZ). It is promised that
// each bin receives at most binZ real elements; any excess reals are
// dropped (replaced by fillers downstream) and their count is returned so
// the caller can account for the negligible-probability overflow event of
// Theorem C.1. The returned count is computed from raw memory outside the
// adversary's view (diagnostics only).
//
// The algorithm is the O(1)-oblivious-sorts construction of [CS17]:
//
//  1. append binZ temp elements per bin;
//  2. oblivious sort by (group, real-before-temp), fillers last;
//  3. oblivious propagation gives each element its group's leftmost
//     position; elements at offset >= binZ within their group are marked
//     excess;
//  4. oblivious sort moving excess and fillers to the end;
//  5. truncate to beta*binZ and replace temps by fillers.
//
// groupOf is consulted only for Real elements; Temp elements use their Tag.
func BinPlace(
	c *forkjoin.Ctx, sp *mem.Space,
	in *mem.Array[Elem], out *mem.Array[Elem],
	beta, binZ int,
	groupOf func(Elem) uint64,
	srt ScheduledSorter,
) int {
	nIn := in.Len()
	outLen := beta * binZ
	if out.Len() < outLen {
		panic("obliv: BinPlace output too short")
	}
	wLen := NextPow2(nIn + outLen)
	w := mem.Alloc[Elem](sp, wLen)

	// Step 1: copy input, then append binZ temps per bin; trailing slots
	// remain fillers (zero value).
	mem.CopyPar(c, w, 0, in, 0, nIn)
	forkjoin.ParallelRange(c, 0, outLen, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for k := lo; k < hi; k++ {
			w.Set(c, nIn+k, Elem{Kind: Temp, Tag: uint32(k / binZ)})
		}
	})

	effGroup := func(e Elem) uint64 {
		switch e.Kind {
		case Temp:
			return uint64(e.Tag)
		case Real:
			return groupOf(e)
		default:
			return InfKey
		}
	}

	// Step 2: sort by (group, real-before-temp); fillers last.
	key1 := func(e Elem) uint64 {
		if e.Kind == Filler {
			return InfKey
		}
		k := effGroup(e) << 1
		if e.Kind == Temp {
			k |= 1
		}
		return k
	}
	srt.Sort(c, sp, w, 0, wLen, key1)

	// Step 3: find each group's leftmost position; mark excess.
	PropagateFirst(c, sp, w, effGroup,
		func(e Elem, i int) (uint64, bool) { return uint64(i), true },
		func(e Elem, i int, v uint64, ok bool) Elem {
			e.Mark = 0
			if e.Kind != Filler && i-int(v) >= binZ {
				e.Mark = 1
			}
			return e
		})

	// Step 4: sort normals by (group, real-before-temp); excess and
	// fillers to the end. Ordering reals before temps guarantees every
	// output bin holds its real elements in its first slots — callers
	// (e.g. the ORAM eviction write-back) rely on this.
	key2 := func(e Elem) uint64 {
		if e.Kind == Filler || e.Mark == 1 {
			return InfKey
		}
		k := effGroup(e) << 1
		if e.Kind == Temp {
			k |= 1
		}
		return k
	}
	srt.Sort(c, sp, w, 0, wLen, key2)

	// Step 5: truncate, turning temps into fillers and clearing marks.
	forkjoin.ParallelRange(c, 0, outLen, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := w.Get(c, i)
			if e.Kind == Temp {
				e = Elem{}
			}
			e.Mark = 0
			out.Set(c, i, e)
		}
	})

	// Overflow diagnostics (outside the adversary's view).
	lost := 0
	for _, e := range w.Data()[outLen:] {
		if e.Kind == Real {
			lost++
		}
	}
	return lost
}
