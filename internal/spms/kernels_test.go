package spms

import (
	"fmt"
	"testing"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/obliv/oblivtest"
	"oblivmc/internal/prng"
)

// TestSampleSortScheduledMatchesPerAccess is the differential test of the
// keyed sample sort's raw kernels (in-place insertion leaves, by-index
// classification and scatter): duplicate-heavy keys, tags and positions
// with fillers, so that most comparisons fall through to the tie words
// (distinct, as the sort's contract requires: the metered and the unmetered
// recursion switch to their leaves at different sizes, and only a strict
// order pins the result), sizes from one leaf to three partition levels,
// both widths, on a subrange —
// under the metered executor (whole-row loads and stores) and the serial
// and pool executors (rows compared and moved in place).
func TestSampleSortScheduledMatchesPerAccess(t *testing.T) {
	type state struct {
		Elems  []obliv.Elem
		Planes [][]uint64
		Tie    []uint64
	}
	for _, n := range []int{2, 48, 49, 64, 65, 1000, 5000, 20000} {
		for _, w := range []int{1, 2} {
			oblivtest.SameOnEveryExecutor(t, fmt.Sprintf("n=%d w=%d", n, w), func(c *forkjoin.Ctx, sp *mem.Space) state {
				const lo = 3
				src := prng.New(uint64(n * w))
				a := mem.Alloc[obliv.Elem](sp, n+lo+2)
				ks := obliv.AllocKeySchedule(sp, n+lo+2, w)
				tie := mem.Alloc[uint64](sp, n+lo+2)
				for i := range a.Data() {
					e := obliv.Elem{Key: src.Uint64n(6), Key2: src.Uint64n(3), Val: src.Uint64(), Aux: src.Uint64n(4), Tag: uint32(src.Uint64n(2)), Kind: obliv.Real}
					if src.Uint64n(5) == 0 {
						e.Kind = obliv.Filler
					}
					a.Data()[i] = e
					ks.Plane(0).Data()[i] = e.Key << 59
					if w > 1 {
						ks.Plane(1).Data()[i] = e.Key2
					}
					tie.Data()[i] = src.Uint64()<<16 | uint64(i)
				}
				SampleSortScheduled(c, sp, a, ks, tie, nil, nil, nil, lo, n, 99)
				st := state{Elems: append([]obliv.Elem(nil), a.Data()...), Tie: append([]uint64(nil), tie.Data()...)}
				for p := 0; p < w; p++ {
					st.Planes = append(st.Planes, append([]uint64(nil), ks.Plane(p).Data()...))
				}
				return st
			})
		}
	}
}
