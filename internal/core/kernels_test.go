package core

import (
	"fmt"
	"reflect"
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
// apply: a routed network over n = 2^k positions, k = 1..16 — up to three
// recursion levels above benesLeaf — at both widths, applied under the
// metered executor (per-access switches in layer order) and on the serial
// and pool executors (the recursive apply of mask-selected raw switches)
// must leave the same elements — every field of them — and key planes.
func TestBenesApplyMatchesPerAccess(t *testing.T) {
	for k := 1; k <= 16; k++ {
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
	for _, n := range []int{2, 64, 1024, 8192, 1 << 15} {
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

// layeredApply is the layer-at-a-time raw loop the recursive apply
// replaced, kept as its reference: every layer streams the whole array,
// and each switch copies both inputs across, then exchanges them in place
// under the mask.
func layeredApply(pl *benesPlan, a, scr []obliv.Elem, ks, kscr [][]uint64) {
	n := pl.n
	k := obliv.Log2(n)
	cur, nxt := a, scr
	kcur, knxt := ks, kscr
	layer := func(set []bool, h int, split bool, dst, src []obliv.Elem, kdst, ksrc [][]uint64) {
		for t := range set {
			i0, i1, o0, o1 := switchPorts(t, h, split)
			dst[o0], dst[o1] = src[i0], src[i1]
			obliv.CondSwap(&dst[o0], &dst[o1], switchMask(set[t]))
			for p := range ksrc {
				x, y := ksrc[p][i0], ksrc[p][i1]
				if set[t] {
					x, y = y, x
				}
				kdst[p][o0], kdst[p][o1] = x, y
			}
		}
	}
	for l := 0; l < k-1; l++ {
		layer(pl.layers[l], n>>(l+1), true, nxt, cur, knxt, kcur)
		cur, nxt, kcur, knxt = nxt, cur, knxt, kcur
	}
	layer(pl.layers[k-1], 1, true, cur, cur, kcur, kcur)
	for l := k - 2; l >= 0; l-- {
		layer(pl.layers[2*k-2-l], n>>(l+1), false, nxt, cur, knxt, kcur)
		cur, nxt, kcur, knxt = nxt, cur, knxt, kcur
	}
}

// TestBenesRecursiveApplyMatchesLayered applies one routed plan through the
// layer-at-a-time reference loop and through the recursive apply on the
// serial and pool executors, at sizes below, at and above benesLeaf and at
// both widths, and requires identical bytes: the recursion reorders the
// switches, never their effect.
func TestBenesRecursiveApplyMatchesLayered(t *testing.T) {
	for _, n := range []int{2, 1 << 10, benesLeaf, 4 * benesLeaf} {
		pl := routeBenes(prng.New(uint64(n)).Perm(n))
		for _, w := range []int{1, 2} {
			sp := mem.NewSpace()
			src := prng.New(uint64(n * w))
			a, ks := shuffleInput(sp, src, n, n-n/5, w)
			for i := range a.Data() {
				e := &a.Data()[i]
				e.Lbl, e.Tag, e.Mark = src.Uint64(), uint32(src.Uint64n(3)), uint8(src.Uint64n(2))
			}
			in := snapshotKeyed(a, ks)

			want := snapshotKeyed(a, ks)
			kscr := make([][]uint64, w)
			for p := range kscr {
				kscr[p] = make([]uint64, n)
			}
			layeredApply(pl, want.Elems, make([]obliv.Elem, n), want.Planes, kscr)

			for _, workers := range []int{0, 2} {
				copy(a.Data(), in.Elems)
				for p := 0; p < w; p++ {
					copy(ks.Plane(p).Data(), in.Planes[p])
				}
				scr, kscr := sortScratch(sp, ks, n)
				if workers == 0 {
					pl.apply(forkjoin.Serial(), a, scr, ks, kscr)
				} else {
					forkjoin.RunParallel(workers, func(c *forkjoin.Ctx) { pl.apply(c, a, scr, ks, kscr) })
				}
				if got := snapshotKeyed(a, ks); !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d w=%d workers=%d: the recursive apply's bytes differ from the layered loop's", n, w, workers)
				}
			}
		}
	}
}
