package bitonic

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/obliv/oblivtest"
	"oblivmc/internal/prng"
)

// TestRecordedSortMatchesKeyedAndUnsorts: on the serial executor, a 2-worker
// pool and the metered executor, the recorded plane sort leaves exactly
// the planes the unrecorded one leaves and the key plane SortCAKeyed
// leaves, and the word un-sort then carries two planes written in sorted
// order — each entry's home index, carried through the sort, and a second
// word derived from it — back to the identity: slot i of the first reads
// i, of the second ^i. The pool leg runs leaves concurrently, so under
// -race two leaves sharing a record word fail here. The metered executor
// ignores the leaf size (it forks down to leaf 2), so it runs the default
// leaf, and the descending leaf-8 variant up to 2^11 for the other
// direction; its leg stops at 2^14 (its dense layout has no leaf
// boundaries to get wrong above that, and 2^16 per access takes ~14 s,
// ~90 s under -race).
func TestRecordedSortMatchesKeyedAndUnsorts(t *testing.T) {
	execs := []struct {
		name string
		run  func(func(c *forkjoin.Ctx))
	}{
		{"serial", func(f func(c *forkjoin.Ctx)) { f(forkjoin.Serial()) }},
		{"pool2", func(f func(c *forkjoin.Ctx)) { forkjoin.RunParallel(2, f) }},
		{"metered", func(f func(c *forkjoin.Ctx)) { forkjoin.RunMetered(forkjoin.MeterOpts{}, f) }},
	}
	type variant struct {
		n, leaf int
		asc     bool
	}
	var variants []variant
	for _, n := range []int{2, 64, 1024, 2048, 1 << 14} {
		variants = append(variants, variant{n, 8, true}, variant{n, 8, false}, variant{n, 16, true}, variant{n, 0, true})
	}
	variants = append(variants, variant{1 << 16, 0, true})
	for _, v := range variants {
		n := v.n
		for _, ex := range execs {
			if ex.name == "metered" && (n > 1<<14 || v.leaf == 16 || v.leaf == 8 && (v.asc || n > 2048)) {
				continue
			}
			label := fmt.Sprintf("n=%d leaf=%d asc=%v %s", n, v.leaf, v.asc, ex.name)
			var keyed, want, got [][]uint64
			var homes, derived []uint64
			ex.run(func(c *forkjoin.Ctx) {
				sp := mem.NewSpace()
				a, scr := mem.Alloc[obliv.Elem](sp, n+3), mem.Alloc[obliv.Elem](sp, n)
				ks, kscr := obliv.AllocKeySchedule(sp, n+3, 1), obliv.AllocKeySchedule(sp, n, 1)
				dupHeavy(uint64(n)+7, a, ks)
				ws, wscr := obliv.AllocKeySchedule(sp, n+3, 2), obliv.AllocKeySchedule(sp, n, 2)
				load := func() { // key, then home index
					copy(ws.Plane(0).Data(), ks.Plane(0).Data())
					for i := range n {
						ws.Plane(1).Data()[3+i] = uint64(i)
					}
				}

				load()
				SortCAPlanes(c, ws, wscr, 1, nil, 3, n, v.asc, v.leaf)
				want = planes(ws)
				load()
				rec := mem.Alloc[uint64](sp, RecordWords(c, n, v.leaf))
				SortCAPlanes(c, ws, wscr, 1, rec, 3, n, v.asc, v.leaf)
				got = planes(ws)
				SortCAKeyed(c, a, scr, ks, kscr, 3, n, v.asc, v.leaf)
				keyed = planes(ks)

				vs, vscr := obliv.AllocKeySchedule(sp, n+3, 2), obliv.AllocKeySchedule(sp, n, 2)
				for r := range n {
					home := ws.Plane(1).Data()[3+r]
					vs.Plane(0).Data()[3+r], vs.Plane(1).Data()[3+r] = home, ^home
				}
				UnsortCA(c, vs, vscr, rec, 3, n, v.leaf)
				homes = vs.Plane(0).Data()[3:]
				derived = vs.Plane(1).Data()[3:]
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: the recorded plane sort differs from the unrecorded one", label)
			}
			if !reflect.DeepEqual(got[0], keyed[0]) {
				t.Fatalf("%s: the plane sort's keys differ from SortCAKeyed's", label)
			}
			for i := range n {
				if homes[i] != uint64(i) || derived[i] != ^uint64(i) {
					t.Fatalf("%s: slot %d un-sorted to home %d, second word %x", label, i, homes[i], derived[i])
				}
			}
		}
	}
}

// planes is a copy of the word planes of ws.
func planes(ws *obliv.KeySchedule) [][]uint64 {
	var ps [][]uint64
	for p := 0; p < ws.Width(); p++ {
		ps = append(ps, append([]uint64(nil), ws.Plane(p).Data()...))
	}
	return ps
}

// TestUnsortPermutesNewContents: the un-sort applies the inverse of the
// recorded permutation to whatever the plane holds — the gather's use,
// which routes values into the sorted requests' value plane before
// un-sorting it. Here the value is the sorted slot itself, so after the
// un-sort slot i must name the sorted slot its entry went to.
func TestUnsortPermutesNewContents(t *testing.T) {
	const n = 4096
	forkjoin.RunParallel(2, func(c *forkjoin.Ctx) {
		sp := mem.NewSpace()
		a := mem.Alloc[obliv.Elem](sp, n)
		ws, wscr := obliv.AllocKeySchedule(sp, n, 2), obliv.AllocKeySchedule(sp, n, 2)
		dupHeavy(11, a, ws.View(0, n))
		for i := range n {
			ws.Plane(1).Data()[i] = uint64(i) // home slot
		}
		rec := mem.Alloc[uint64](sp, RecordWords(c, n, 0))
		SortCAPlanes(c, ws, wscr, 1, rec, 0, n, true, 0)
		sorted := append([]uint64(nil), ws.Plane(1).Data()...)
		vs, vscr := obliv.AllocKeySchedule(sp, n, 1), obliv.AllocKeySchedule(sp, n, 1)
		for r := range n {
			vs.Plane(0).Data()[r] = uint64(r) // sorted slot
		}
		UnsortCA(c, vs, vscr, rec, 0, n, 0)
		for i, r := range vs.Plane(0).Data() {
			if sorted[r] != uint64(i) {
				t.Fatalf("slot %d got sorted slot %d, which holds home %d", i, r, sorted[r])
			}
		}
	})
}

// TestRecordLayoutSize pins the swap record's size: one bit per comparator
// packed densely under the metered executor, and at most one extra word per
// padded leaf on the serial and pool executors — about 110 KiB at 2^14.
func TestRecordLayoutSize(t *testing.T) {
	for _, n := range []int{2, 64, 1024, 2048, 1 << 14, 1 << 16} {
		k := obliv.Log2(n)
		dense := (n*k*(k+1)/4 + 63) / 64
		var metered, serial int
		forkjoin.RunMetered(forkjoin.MeterOpts{}, func(c *forkjoin.Ctx) { metered = RecordWords(c, n, 0) })
		serial = RecordWords(forkjoin.Serial(), n, 0)
		if metered != dense {
			t.Fatalf("n=%d: metered record %d words, want the dense %d", n, metered, dense)
		}
		if serial < dense || serial > dense+dense/16+1 {
			t.Fatalf("n=%d: padded record %d words, dense %d", n, serial, dense)
		}
		if n == 1<<14 && (serial*8 < 105<<10 || serial*8 > 115<<10) {
			t.Fatalf("2^14 record is %d bytes, want about 110 KiB", serial*8)
		}
	}
}

// TestRecordUnsortTraceLockstep: the recorded plane sort — one or two key
// planes and a carried one — and its word un-sort, over one plane and over
// two, touch the same addresses for every input of one size, duplicates
// and full ties included.
func TestRecordUnsortTraceLockstep(t *testing.T) {
	oblivtest.Lockstep(t, "record+unsort", 4, 3, 91, func(c *forkjoin.Ctx, sp *mem.Space, shape, content *prng.Source) {
		n := 1 << (1 + shape.Intn(7))
		w := 1 + shape.Intn(2)
		k := 1 + shape.Intn(2)
		ws, wscr := obliv.AllocKeySchedule(sp, n, k+1), obliv.AllocKeySchedule(sp, n, k+1)
		for p := 0; p < k+1; p++ {
			for i := range n {
				ws.Plane(p).Data()[i] = content.Uint64n(3)
			}
		}
		rec := mem.Alloc[uint64](sp, RecordWords(c, n, 0))
		SortCAPlanes(c, ws, wscr, k, rec, 0, n, true, 0)
		vs, vscr := obliv.AllocKeySchedule(sp, n, w), obliv.AllocKeySchedule(sp, n, w)
		for p := 0; p < w; p++ {
			for r := range n {
				vs.Plane(p).Data()[r] = content.Uint64()
			}
		}
		UnsortCA(c, vs, vscr, rec, 0, n, 0)
	})
}

// TestRecordedSortAllocs: a recorded plane sort and its un-sort look their
// record layout up rather than computing a fresh one per call, so a warmed
// unmetered SortCAPlanes + UnsortCA pair at 2^10 — one leaf at the default
// leaf size — allocates only the network's plane views (newNetwork's
// KeySchedule.View calls): 14 objects. Computing a layout per call made it
// 16. Above the leaf, at 2^14, the rest is the fork tree's closures and
// views: 984 objects while a task runs a leaf's worth of row merges (or
// un-merges), 4568 when every row was a task of its own.
func TestRecordedSortAllocs(t *testing.T) {
	for _, tc := range []struct {
		n   int
		max float64
	}{{1 << 10, 14}, {1 << 14, 1000}} {
		n := tc.n
		c, sp := forkjoin.Serial(), mem.NewSpace()
		ws, scr := obliv.AllocKeySchedule(sp, n, 2), obliv.AllocKeySchedule(sp, n, 2)
		vs, vscr := obliv.AllocKeySchedule(sp, n, 1), obliv.AllocKeySchedule(sp, n, 1)
		rec := mem.Alloc[uint64](sp, RecordWords(c, n, DefaultLeaf))
		src := prng.New(7)
		for i := 0; i < n; i++ {
			ws.Plane(0).Data()[i] = src.Uint64n(uint64(n))
		}
		if a := testing.AllocsPerRun(20, func() {
			SortCAPlanes(c, ws, scr, 1, rec, 0, n, true, DefaultLeaf)
			UnsortCA(c, vs, vscr, rec, 0, n, DefaultLeaf)
		}); a > tc.max {
			t.Fatalf("recorded sort + un-sort at n = %d allocate %.0f objects per run, want at most %.0f", n, a, tc.max)
		}
	}
}

// TestLayoutCacheConcurrent: goroutines racing to the first use of a leaf
// size's layout all read one equal to a fresh computation (run it under
// -race).
func TestLayoutCacheConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, leaf := range []int{4, 16, 64, 256} {
				for _, dense := range []bool{false, true} {
					if got, want := *layoutFor(leaf, dense), *newLayout(leaf, dense); got != want {
						t.Errorf("leaf %d, dense %t: cached layout differs from a fresh one", leaf, dense)
					}
				}
			}
		}()
	}
	wg.Wait()
}
