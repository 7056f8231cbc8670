package bitonic

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

// dupHeavy fills a with elements over very few distinct keys, tags and
// positions, about one in five not Real, and ks with their key words, so
// that word ties, TiePos ties and full ties all occur.
func dupHeavy(seed uint64, a *mem.Array[obliv.Elem], ks *obliv.KeySchedule) {
	src := prng.New(seed)
	for i := range a.Data() {
		e := obliv.Elem{
			Key: src.Uint64n(4) << 60, Key2: src.Uint64n(3), Val: src.Uint64(), Aux: src.Uint64n(5),
			Lbl: src.Uint64(), Tag: uint32(src.Uint64n(2)), Kind: obliv.Real, Mark: uint8(src.Uint64n(2)),
		}
		switch src.Uint64n(10) {
		case 0:
			e.Kind = obliv.Filler
		case 1:
			e.Kind = obliv.Temp
		}
		a.Data()[i] = e
		ks.Plane(0).Data()[i] = e.Key
		if ks.Width() > 1 {
			ks.Plane(1).Data()[i] = e.Key2
		}
	}
}

// TestKeyedNetworkMatchesPerAccess is the differential test of the block
// leaves and transposes: the keyed sort and the keyed merge under the
// metered executor (per-access specification, leaf 2) and the serial and
// pool executors (raw kernels) must leave identical elements and key planes
// — at the production leaf in both directions, and at a leaf that forces
// forks and transposes above small blocks. The plane sort and merge run the
// same recursion over a key plane and a carried plane alone, with no TiePos
// to separate equal keys; their rows pin that its leaves apply the
// comparators of the fully forked network, directions included, so equal
// keys end up in the order of the metered specification (the CacheAgnostic
// rows sort above one leaf, where the second half is a descending leaf).
func TestKeyedNetworkMatchesPerAccess(t *testing.T) {
	type variant struct {
		leaf int
		asc  bool
	}
	production := variant{DefaultLeaf, true}
	for n := 2; n <= 4096; n <<= 1 {
		for _, v := range []variant{production, {DefaultLeaf, false}, {8, true}} {
			if n > 512 && v != production {
				// Keeps the -race run short. Above one leaf the production
				// network sorts its second half descending anyway.
				continue
			}
			for _, w := range []int{1, 2} {
				label := fmt.Sprintf("n=%d w=%d leaf=%d asc=%v", n, w, v.leaf, v.asc)
				setup := func(sp *mem.Space) (a, scr *mem.Array[obliv.Elem], ks, kscr *obliv.KeySchedule) {
					// lo = 3: the networks run on a subrange.
					a, scr = mem.Alloc[obliv.Elem](sp, n+5), mem.Alloc[obliv.Elem](sp, n)
					ks, kscr = obliv.AllocKeySchedule(sp, n+5, w), obliv.AllocKeySchedule(sp, n, w)
					dupHeavy(uint64(n*w), a, ks)
					return
				}
				oblivtest.SameOnEveryExecutor(t, "sort "+label, func(c *forkjoin.Ctx, sp *mem.Space) keyedState {
					a, scr, ks, kscr := setup(sp)
					SortCAKeyed(c, a, scr, ks, kscr, 3, n, v.asc, v.leaf)
					return snapshotKeyed(a, ks)
				})
				oblivtest.SameOnEveryExecutor(t, "merge "+label, func(c *forkjoin.Ctx, sp *mem.Space) keyedState {
					a, scr, ks, kscr := setup(sp)
					newNetwork(c, a, scr, ks, kscr, 3, n, v.leaf).merge(c, 0, n, v.asc, 0)
					return snapshotKeyed(a, ks)
				})
			}
			label := fmt.Sprintf("n=%d leaf=%d asc=%v", n, v.leaf, v.asc)
			setup := func(sp *mem.Space) (a *mem.Array[obliv.Elem], ws, wscr *obliv.KeySchedule) {
				a = mem.Alloc[obliv.Elem](sp, n+5)
				ws, wscr = obliv.AllocKeySchedule(sp, n+5, 2), obliv.AllocKeySchedule(sp, n, 2)
				dupHeavy(uint64(n), a, obliv.NewKeySchedule(ws.Plane(0), n+5, 1))
				for i, e := range a.Data() {
					ws.Plane(1).Data()[i] = e.Val // carried
				}
				return
			}
			oblivtest.SameOnEveryExecutor(t, "plane sort "+label, func(c *forkjoin.Ctx, sp *mem.Space) [][]uint64 {
				_, ws, wscr := setup(sp)
				SortCAPlanes(c, ws, wscr, 1, nil, 3, n, v.asc, v.leaf)
				return planes(ws)
			})
			oblivtest.SameOnEveryExecutor(t, "plane merge "+label, func(c *forkjoin.Ctx, sp *mem.Space) [][]uint64 {
				_, ws, wscr := setup(sp)
				nw := newNetwork(c, nil, nil, ws, wscr, 3, n, v.leaf)
				nw.keys = 1
				nw.merge(c, 0, n, v.asc, 0)
				return planes(ws)
			})
			if n > DefaultLeaf {
				oblivtest.SameOnEveryExecutor(t, "CacheAgnostic.Sort "+label, func(c *forkjoin.Ctx, sp *mem.Space) []obliv.Elem {
					a, _, _ := setup(sp)
					CacheAgnostic{}.Sort(c, sp, a, 3, n, keyFn)
					return a.Data()
				})
			}
		}
	}
}

// TestMeteredIgnoresLeafConstant pins that the leaf size is an unmetered
// tuning constant only: whatever leaf the caller asks for, the metered
// network is the fully forked leaf-2 one, trace and counts identical.
func TestMeteredIgnoresLeafConstant(t *testing.T) {
	const n = 256
	run := func(leaf int) *forkjoin.Metrics {
		return oblivtest.Metered(func(c *forkjoin.Ctx, sp *mem.Space) {
			a, scr := mem.Alloc[obliv.Elem](sp, n), mem.Alloc[obliv.Elem](sp, n)
			ks, kscr := obliv.AllocKeySchedule(sp, n, 1), obliv.AllocKeySchedule(sp, n, 1)
			dupHeavy(1, a, ks)
			SortCAKeyed(c, a, scr, ks, kscr, 0, n, true, leaf)
		})
	}
	ref := run(2)
	for _, leaf := range []int{0, 32, DefaultLeaf, 4 * DefaultLeaf} {
		if got := run(leaf); *got != *ref {
			t.Fatalf("leaf %d moved the metered run: %+v, leaf 2 %+v", leaf, got, ref)
		}
	}
}
