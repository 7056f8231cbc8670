package bitonic

import (
	"testing"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
)

// TestKeyedCancelSite pins the cancellation checkpoint of the keyed
// network: a tripped token aborts at the public "bitonic.layer" site
// before any layer runs, and an untripped token leaves the sort intact.
func TestKeyedCancelSite(t *testing.T) {
	const n = 128
	s := mem.NewSpace()
	a := mem.FromSlice(s, randElems(7, n))
	ks := obliv.AllocKeySchedule(s, n, 1)
	obliv.BuildKeySchedule(forkjoin.Serial(), a, ks, 0, n, keyWords)

	scr := mem.Alloc[obliv.Elem](s, n)
	kscr := obliv.AllocKeySchedule(s, n, 1)
	sortKeyed := func(c *forkjoin.Ctx) { SortCAKeyed(c, a, scr, ks, kscr, 0, n, true, 0) }

	cn := new(forkjoin.Cancel)
	cn.Cancel()
	var caught any
	func() {
		defer func() { caught = recover() }()
		sortKeyed(forkjoin.SerialCancel(cn))
	}()
	ce, ok := caught.(*forkjoin.CanceledError)
	if !ok {
		t.Fatalf("tripped token panicked %T (%v), want *CanceledError", caught, caught)
	}
	if ce.Site != "bitonic.layer" {
		t.Fatalf("aborted at site %q, want bitonic.layer", ce.Site)
	}

	// The abort fired before the first layer, so the array is untouched; an
	// untripped token must now run the sort to completion.
	sortKeyed(forkjoin.SerialCancel(new(forkjoin.Cancel)))
	assertSorted(t, a.Data(), "keyed sort with untripped token")
}
