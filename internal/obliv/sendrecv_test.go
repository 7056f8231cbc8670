package obliv_test

import (
	"cmp"
	"slices"
	"testing"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/prng"
)

// sendRecvCase draws a send-receive input with both sides in
// SendReceiveSorted's order: sources ascending by Key with Real entries
// first at equal keys, destinations in key order with every non-Real one
// last. Few distinct keys, so duplicate source and destination keys are
// common, about one entry in five not Real on either side, and now and
// then the largest legal key. Each destination's Aux is its draw index.
func sendRecvCase(seed uint64, ns, nd int) (srcs, dsts []obliv.Elem) {
	src := prng.New(seed)
	key := func() uint64 {
		if src.Uint64n(16) == 0 {
			return obliv.InfKey - 1
		}
		return src.Uint64n(uint64(ns+nd)/2 + 2)
	}
	kind := func() obliv.Kind {
		switch src.Uint64n(10) {
		case 0:
			return obliv.Filler
		case 1:
			return obliv.Temp
		}
		return obliv.Real
	}
	srcs = make([]obliv.Elem, ns)
	for i := range srcs {
		srcs[i] = obliv.Elem{Key: key(), Val: src.Uint64(), Aux: src.Uint64(), Kind: kind()}
	}
	slices.SortStableFunc(srcs, func(x, y obliv.Elem) int {
		return cmp.Or(cmp.Compare(x.Key, y.Key), cmp.Compare(realRank(x), realRank(y)))
	})
	dsts = make([]obliv.Elem, nd)
	for j := range dsts {
		dsts[j] = obliv.Elem{Key: key(), Val: src.Uint64(), Aux: uint64(j), Kind: kind()}
	}
	slices.SortStableFunc(dsts, func(x, y obliv.Elem) int {
		return cmp.Or(cmp.Compare(realRank(x), realRank(y)), cmp.Compare(x.Key, y.Key))
	})
	return srcs, dsts
}

func realRank(e obliv.Elem) int {
	if e.Kind == obliv.Real {
		return 0
	}
	return 1
}

// TestSendReceiveSortedMatchesSendReceive: the merge-based send-receive
// routes exactly SendReceive's values — and, where SendReceive answers ⊥,
// the destination's own Val — on the serial and pool executors. (Sorted
// sources against unsorted requests are pram.Gatherer's case, tested
// there.)
func TestSendReceiveSortedMatchesSendReceive(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 5, 8, 13, 31, 64, 100}
	execs := []struct {
		name string
		run  func(func(c *forkjoin.Ctx))
	}{
		{"serial", func(f func(c *forkjoin.Ctx)) { f(forkjoin.Serial()) }},
		{"pool", func(f func(c *forkjoin.Ctx)) { forkjoin.RunParallel(4, f) }},
	}
	seed := uint64(0)
	for _, ns := range sizes {
		for _, nd := range sizes {
			seed++
			srcs, dsts := sendRecvCase(seed, ns, nd)
			sp := mem.NewSpace()
			union := obliv.SendReceive(forkjoin.Serial(), sp, mem.FromSlice(sp, srcs), mem.FromSlice(sp, dsts), obliv.SelectionNetwork{}).Data()
			want := make([]uint64, nd)
			for j, e := range union {
				want[j] = dsts[j].Val
				if e.Kind == obliv.Real {
					want[j] = e.Val
				}
			}
			for _, ex := range execs {
				var got []uint64
				ex.run(func(c *forkjoin.Ctx) {
					sp := mem.NewSpace()
					out := mem.Alloc[uint64](sp, nd)
					obliv.SendReceiveSorted(c, sp, mem.FromSlice(sp, srcs), mem.FromSlice(sp, dsts), out)
					got = append([]uint64(nil), out.Data()...)
				})
				if !slices.Equal(got, want) {
					t.Fatalf("ns=%d nd=%d on %s:\n got %v\nwant %v", ns, nd, ex.name, got, want)
				}
			}
		}
	}
}
