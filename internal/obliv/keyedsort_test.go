package obliv_test

// External test package: the sorters under test live in internal/bitonic
// and internal/core, which both import obliv.

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"oblivmc/internal/bitonic"
	"oblivmc/internal/core"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/obliv/oblivtest"
	"oblivmc/internal/prng"
)

// keyedSorters returns the three backends whose TiePos output must agree:
// the production network, the shuffle composition forced down to every
// power-of-two size, and the selection-network oracle.
func keyedSorters() []obliv.ScheduledSorter {
	seed := uint64(0x5eed)
	return []obliv.ScheduledSorter{
		bitonic.CacheAgnostic{},
		&core.ShuffleSorter{FixedSeed: &seed, Crossover: 2},
		obliv.SelectionNetwork{},
	}
}

// keyedInput builds lo untouched head elements, n duplicate-heavy elements
// (4 distinct keys, two tags, ~1/5 fillers, Aux = position) and a 3-element
// tail.
func keyedInput(seed uint64, lo, n int) []obliv.Elem {
	src := prng.New(seed)
	raw := make([]obliv.Elem, lo+n+3)
	for i := range raw {
		raw[i] = obliv.Elem{Key: src.Uint64n(4), Val: src.Uint64n(1 << 20), Tag: uint32(src.Uint64n(2)), Aux: uint64(i), Kind: obliv.Real}
		if src.Uint64n(5) == 0 {
			raw[i] = obliv.Elem{}
		}
	}
	return raw
}

func byKey(e obliv.Elem) uint64 {
	if e.Kind != obliv.Real {
		return obliv.InfKey
	}
	return e.Key
}

func byPos(e obliv.Elem) uint64 {
	if e.Kind != obliv.Real {
		return obliv.InfKey
	}
	return e.Aux
}

// wantKeyed is the plain-Go reference: raw with [lo, lo+n) stably ordered
// by (key, TiePos triple).
func wantKeyed(raw []obliv.Elem, lo, n int, key func(obliv.Elem) uint64) []obliv.Elem {
	want := slices.Clone(raw)
	slices.SortStableFunc(want[lo:lo+n], func(x, y obliv.Elem) int {
		if c := cmp.Compare(key(x), key(y)); c != 0 {
			return c
		}
		switch {
		case obliv.PosAfter(x, y):
			return 1
		case obliv.PosAfter(y, x):
			return -1
		}
		return 0
	})
	return want
}

func TestKeyedSort(t *testing.T) {
	type shape struct{ lo, n int }
	shapes := []shape{{0, 1}, {0, 2}, {0, 64}, {0, 256}, {5, 1}, {5, 2}, {5, 8}, {16, 128}}
	for _, sh := range shapes {
		lo, n := sh.lo, sh.n
		raw := keyedInput(uint64(31*n+lo), lo, n)
		want := wantKeyed(raw, lo, n, byKey)
		for _, srt := range keyedSorters() {
			label := fmt.Sprintf("%s lo=%d n=%d", srt.Name(), lo, n)
			c := forkjoin.Serial()

			// One sort: every backend realizes the reference permutation
			// (TiePos determinism) and leaves the surroundings untouched.
			sp := mem.NewSpace()
			a := mem.FromSlice(sp, raw)
			ks := obliv.NewKeyedSort(sp, n, srt)
			ks.Sort(c, a, lo, n, byKey)
			if !slices.Equal(a.Data(), want) {
				t.Fatalf("%s: keyed sort diverges from the reference\n got %v\nwant %v", label, a.Data(), want)
			}
			for i, w := range ks.Keys().Data()[:n] {
				if w != byKey(a.Data()[lo+i]) {
					t.Fatalf("%s: key plane out of lockstep at %d", label, i)
				}
			}

			// Two consecutive sorts through the same instance equal two
			// fresh ones (the reused schedule and scratch carry no state).
			ks.Sort(c, a, lo, n, byPos)
			sp2 := mem.NewSpace()
			b := mem.FromSlice(sp2, want)
			obliv.NewKeyedSort(sp2, n, srt).Sort(c, b, lo, n, byPos)
			if !slices.Equal(a.Data(), b.Data()) {
				t.Fatalf("%s: reused helper diverges from a fresh one", label)
			}
			if !slices.Equal(a.Data(), wantKeyed(want, lo, n, byPos)) {
				t.Fatalf("%s: second sort diverges from the reference", label)
			}

			// SortKeyed is the one-shot lo = 0 form of the same helper.
			if lo == 0 {
				sp3 := mem.NewSpace()
				d := mem.FromSlice(sp3, raw)
				obliv.SortKeyed(c, sp3, d, n, byKey, srt)
				if !slices.Equal(d.Data(), want) {
					t.Fatalf("%s: SortKeyed diverges from the reference", label)
				}
			}
		}
	}

	// On the network backend the helper's view — allocations, schedule
	// build, both sorts — is a function of (lo, n) only.
	body := func(seed uint64, lo, n int) oblivtest.Body {
		return func(c *forkjoin.Ctx, sp *mem.Space) {
			a := mem.FromSlice(sp, keyedInput(seed, lo, n))
			ks := obliv.NewKeyedSort(sp, n, bitonic.CacheAgnostic{})
			ks.Sort(c, a, lo, n, byKey)
			ks.Sort(c, a, lo, n, byPos)
		}
	}
	oblivtest.FingerprintEqual(t, "KeyedSort", body(1, 5, 64), body(2, 5, 64), body(3, 5, 64))
	oblivtest.Different(t, "KeyedSort n", body(1, 5, 64), body(1, 5, 128))
	oblivtest.Different(t, "KeyedSort lo", body(1, 5, 64), body(1, 6, 64))
}
