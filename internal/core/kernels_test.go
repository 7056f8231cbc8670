package core

import (
	"fmt"
	"testing"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/obliv/oblivtest"
	"oblivmc/internal/prng"
)

// keyedState is a snapshot of an element array and its key planes.
type keyedState struct {
	Elems  []obliv.Elem
	Planes [][]uint64
}

func snapshotKeyed(a *mem.Array[obliv.Elem], ks *obliv.KeySchedule) keyedState {
	st := keyedState{Elems: append([]obliv.Elem(nil), a.Data()...)}
	for p := 0; p < ks.Width(); p++ {
		st.Planes = append(st.Planes, append([]uint64(nil), ks.Plane(p).Data()...))
	}
	return st
}

// TestBenesApplyMatchesPerAccess is the differential test of the raw Beneš
// layers: a routed network over n = 2^k positions, k = 1..12, at both
// widths, applied under the metered executor (per-access switches) and on
// the serial and pool executors (mask-selected raw layers) must leave the
// same elements — every field of them — and key planes.
func TestBenesApplyMatchesPerAccess(t *testing.T) {
	for k := 1; k <= 12; k++ {
		n := 1 << k
		perm := prng.New(uint64(k)).Perm(n)
		for _, w := range []int{1, 2} {
			oblivtest.SameOnEveryExecutor(t, fmt.Sprintf("k=%d w=%d", k, w), func(c *forkjoin.Ctx, sp *mem.Space) keyedState {
				src := prng.New(uint64(n + w))
				a, ks := shuffleInput(sp, src, n, n-n/5, w)
				for i := range a.Data() {
					e := &a.Data()[i]
					e.Lbl, e.Tag, e.Mark = src.Uint64(), uint32(src.Uint64n(3)), uint8(src.Uint64n(2))
				}
				scr, kscr := sortScratch(sp, ks, n)
				routeBenes(perm).apply(c, a, scr, ks, kscr)
				return snapshotKeyed(a, ks)
			})
		}
	}
}

// TestShuffleSortMatchesPerAccess runs the whole composition — routing,
// raw Beneš layers, tie fill, keyed sample sort — at a pinned seed on every
// executor: duplicate-heavy keys with a filler tail, both widths.
func TestShuffleSortMatchesPerAccess(t *testing.T) {
	for _, n := range []int{2, 64, 1024, 8192} {
		for _, w := range []int{1, 2} {
			oblivtest.SameOnEveryExecutor(t, fmt.Sprintf("n=%d w=%d", n, w), func(c *forkjoin.Ctx, sp *mem.Space) keyedState {
				a, ks := shuffleInput(sp, prng.New(uint64(n*w)), n, n-n/4, w)
				scr, kscr := sortScratch(sp, ks, n)
				srt := &ShuffleSorter{FixedSeed: fixedSeed(77), Crossover: 2}
				srt.SortScheduled(c, sp, a, ks, scr, kscr, 0, n)
				return snapshotKeyed(a, ks)
			})
		}
	}
}
