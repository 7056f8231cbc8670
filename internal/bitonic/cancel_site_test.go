package bitonic

import (
	"reflect"
	"testing"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
)

// TestKeyedCancelSite pins the cancellation checkpoint of the keyed
// network, the recorded plane sort and its un-sort: a tripped token aborts each at
// the public "bitonic.layer" site before any layer runs, and an untripped
// token leaves the sort (and the un-sort's restore) intact.
func TestKeyedCancelSite(t *testing.T) {
	const n = 128
	s := mem.NewSpace()
	a := mem.FromSlice(s, randElems(7, n))
	in := append([]obliv.Elem(nil), a.Data()...)
	ks := obliv.AllocKeySchedule(s, n, 1)
	load := func() {
		copy(a.Data(), in)
		obliv.BuildKeySchedule(forkjoin.Serial(), a, ks, 0, n, keyWords)
	}

	scr := mem.Alloc[obliv.Elem](s, n)
	kscr := obliv.AllocKeySchedule(s, n, 1)
	rec := mem.Alloc[uint64](s, RecordWords(forkjoin.Serial(), n, 0))
	vs, vscr := obliv.AllocKeySchedule(s, n, 1), obliv.AllocKeySchedule(s, n, 1)
	ws, wscr := obliv.AllocKeySchedule(s, n, 2), obliv.AllocKeySchedule(s, n, 2)
	loadPlanes := func() { // key, then home slot
		for i, e := range in {
			ws.Plane(0).Data()[i], ws.Plane(1).Data()[i] = e.Key, uint64(i)
		}
	}
	sorted := func(label string) func() { return func() { assertSorted(t, keysOf(a.Data()), label) } }
	runs := []struct {
		name  string
		run   func(c *forkjoin.Ctx)
		check func() // fails t unless the untripped run's result is right
	}{
		{"sort", func(c *forkjoin.Ctx) { SortCAKeyed(c, a, scr, ks, kscr, 0, n, true, 0) },
			sorted("keyed sort with untripped token")},
		{"recorded plane sort", func(c *forkjoin.Ctx) { SortCAPlanes(c, ws, wscr, 1, rec, 0, n, true, 0) }, func() {
			for i := 1; i < n; i++ {
				if ws.Plane(0).Data()[i-1] > ws.Plane(0).Data()[i] {
					t.Fatalf("recorded plane sort with untripped token: keys unsorted at %d", i)
				}
			}
		}},
		{"un-sort", func(c *forkjoin.Ctx) { UnsortCA(c, vs, vscr, rec, 0, n, 0) }, func() {
			for i, r := range vs.Plane(0).Data() {
				if r != uint64(i) {
					t.Fatalf("un-sort with untripped token left home %d at slot %d", r, i)
				}
			}
		}},
	}
	for _, r := range runs {
		load()
		loadPlanes()
		if r.name == "un-sort" {
			SortCAPlanes(forkjoin.Serial(), ws, wscr, 1, rec, 0, n, true, 0)
			copy(vs.Plane(0).Data(), ws.Plane(1).Data()) // each sorted entry's home
		}
		before := append([]obliv.Elem(nil), a.Data()...)
		vsBefore := append([]uint64(nil), vs.Plane(0).Data()...)
		wsBefore := append([]uint64(nil), ws.Plane(0).Data()...)
		cn := new(forkjoin.Cancel)
		cn.Cancel()
		var caught any
		func() {
			defer func() { caught = recover() }()
			r.run(forkjoin.SerialCancel(cn))
		}()
		ce, ok := caught.(*forkjoin.CanceledError)
		if !ok {
			t.Fatalf("%s: tripped token panicked %T (%v), want *CanceledError", r.name, caught, caught)
		}
		if ce.Site != "bitonic.layer" {
			t.Fatalf("%s: aborted at site %q, want bitonic.layer", r.name, ce.Site)
		}
		// The abort fired before the first layer, so the array is untouched;
		// an untripped token must now run to completion.
		if !reflect.DeepEqual(a.Data(), before) || !reflect.DeepEqual(vs.Plane(0).Data(), vsBefore) || !reflect.DeepEqual(ws.Plane(0).Data(), wsBefore) {
			t.Fatalf("%s: the aborted run moved elements or words", r.name)
		}
		r.run(forkjoin.SerialCancel(new(forkjoin.Cancel)))
		r.check()
	}
}
