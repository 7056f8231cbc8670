package core

import (
	"testing"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/prng"
)

// caughtSite runs f expecting a cancellation abort and returns the public
// site it carried.
func caughtSite(t *testing.T, label string, f func()) string {
	t.Helper()
	var caught any
	func() {
		defer func() { caught = recover() }()
		f()
	}()
	ce, ok := caught.(*forkjoin.CanceledError)
	if !ok {
		t.Fatalf("%s panicked %T (%v), want *forkjoin.CanceledError", label, caught, caught)
	}
	return ce.Site
}

// TestBenesCancelSites pins the Beneš checkpoints: a tripped token aborts
// the shuffle composition in the routing stage ("benes.route", which
// precedes the network application), and aborts a direct plan application
// at a layer boundary ("benes.level").
func TestBenesCancelSites(t *testing.T) {
	const n = 64
	sp := mem.NewSpace()
	a, ks := shuffleInput(sp, prng.New(11), n, n, 1)
	cn := new(forkjoin.Cancel)
	cn.Cancel()
	c := forkjoin.SerialCancel(cn)

	shuf := &ShuffleSorter{FixedSeed: fixedSeed(3), Crossover: 2}
	scr, kscr := sortScratch(sp, ks, n)
	if site := caughtSite(t, "tripped SortScheduled", func() {
		shuf.SortScheduled(c, sp, a, ks, scr, kscr, 0, n)
	}); site != "benes.route" {
		t.Fatalf("tripped shuffle sort aborted at %q, want benes.route", site)
	}

	// Route a plan with a live context, then abort its application: the
	// first checkpoint inside apply is the layer boundary.
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	pl := routeBenes(p)
	if site := caughtSite(t, "tripped apply", func() {
		pl.apply(c, a, scr, ks, kscr)
	}); site != "benes.level" {
		t.Fatalf("tripped network apply aborted at %q, want benes.level", site)
	}
}
