package oblivmc

import (
	"slices"
	"testing"

	"oblivmc/internal/bitonic"
	"oblivmc/internal/core"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/prng"
)

// TestEverySortMatchesSelectionNetwork: every sorter's closure-key Sort
// builds a key plane and runs its keyed network, so every one breaks key
// ties by TiePos and, with distinct Aux, all of them must leave exactly
// the selection network's output, element for element — on tie-heavy keys
// (four values, two tags, one element in five a filler keyed InfKey), on a
// subrange, at n = 1, 2, 64 and 2^10.
func TestEverySortMatchesSelectionNetwork(t *testing.T) {
	seed := uint64(3)
	sorters := []obliv.ScheduledSorter{
		bitonic.CacheAgnostic{},
		&core.ShuffleSorter{},
		&core.ShuffleSorter{FixedSeed: &seed, Crossover: 2},
	}
	key := func(e obliv.Elem) uint64 {
		if e.Kind != obliv.Real {
			return obliv.InfKey
		}
		return e.Key
	}
	const lo, pad = 3, 5
	for _, n := range []int{1, 2, 64, 1 << 10} {
		src := prng.New(uint64(n))
		in := make([]obliv.Elem, n+pad)
		for i, p := range src.Perm(n + pad) {
			in[i] = obliv.Elem{Key: src.Uint64n(4), Val: src.Uint64(), Aux: uint64(p), Tag: uint32(src.Uint64n(2)), Kind: obliv.Real}
			if src.Uint64n(5) == 0 {
				in[i].Kind = obliv.Filler
			}
		}
		sortWith := func(srt obliv.ScheduledSorter) []obliv.Elem {
			sp := mem.NewSpace()
			a := mem.FromSlice(sp, in)
			srt.Sort(forkjoin.Serial(), sp, a, lo, n, key)
			return a.Data()
		}
		want := sortWith(obliv.SelectionNetwork{})
		if !slices.Equal(want[:lo], in[:lo]) || !slices.Equal(want[lo+n:], in[lo+n:]) {
			t.Fatalf("n=%d: the selection network wrote outside its range", n)
		}
		for i := lo + 1; i < lo+n; i++ {
			x, y := want[i-1], want[i]
			if key(x) > key(y) || key(x) == key(y) && obliv.PosAfter(x, y) {
				t.Fatalf("n=%d: the selection network's output is not in (key, TiePos) order at %d: %+v, %+v", n, i, x, y)
			}
		}
		for _, srt := range sorters {
			got := sortWith(srt)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%T n=%d: slot %d holds %+v, the selection network %+v", srt, n, i, got[i], want[i])
				}
			}
		}
	}
}
