package graph

import (
	"testing"

	"oblivmc/internal/bitonic"
	"oblivmc/internal/core"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
)

// executed counts the bitonic sorts (plane sorts, recorded or not, and the
// ORP's bin sorts) and un-sorts that run executes.
func executed(run func()) (sorts, unsorts int) {
	s, r := bitonic.NetworkCalls(), bitonic.ReplayCalls()
	run()
	return int(bitonic.NetworkCalls() - s), int(bitonic.ReplayCalls() - r)
}

// orpSorts is the number of sorts the ORP of n entries runs from seed: its
// bin sorts, on every attempt it needs. It is a function of (n, seed, p)
// alone; list ranking draws it once per call.
func orpSorts(n int, seed uint64, p core.Params) int {
	sorts, _ := executed(func() {
		core.MustRandomPermutation(forkjoin.Serial(), mem.NewSpace(), mem.Alloc[obliv.Elem](mem.NewSpace(), n), seed, p)
	})
	return sorts
}

// TestTreeKernelSortsPinned pins the sorts and un-sorts the tree kernels
// execute on the cache-agnostic bitonic backend, each derived from the
// kernel's shape: a change that adds a sort shows up here before it shows
// up in Table 1.
func TestTreeKernelSortsPinned(t *testing.T) {
	p := core.Params{Sorter: bitonic.CacheAgnostic{}}
	c := forkjoin.Serial()
	const seed = 1
	check := func(name string, run func(), sorts, unsorts int) {
		t.Helper()
		if s, u := executed(run); s != sorts || u != unsorts {
			t.Errorf("%s: executed %d sorts and %d un-sorts, want %d and %d", name, s, u, sorts, unsorts)
		}
	}

	// Euler tour, n = 64: one recorded sort of the 126 arc keys and its
	// un-sort.
	check("euler tour n=64", func() {
		EulerTourOblivious(c, mem.NewSpace(), 64, randomTree(seed, 64), 0)
	}, 1, 1)

	// List ranking, n = 256: the ORP's bin sorts, then the position
	// scatter, the successor gather and the rank scatter — one gather, so
	// one un-sort.
	const n = 256
	check("list ranking n=256", func() {
		ListRankOblivious(c, mem.NewSpace(), randomListSucc(seed, n), nil, seed, p)
	}, orpSorts(n, seed, p.Normalized(n))+3, 1)

	// Tree functions, n = 256: the Euler tour (1 sort, 1 un-sort); the
	// unweighted list ranking of the m = 510 arcs (its ORP from seed+1,
	// then the position scatter, the successor gather and the rank
	// scatter: 3 sorts, 1 un-sort); the forward-weighted rerank on the same
	// permutation and routing (the gather replayed — 1 un-sort — and the
	// rank scatter — 1 sort); and three vertex writes (3 sorts).
	const m = 2 * (n - 1)
	check("tree functions n=256", func() {
		TreeFunctionsOblivious(c, mem.NewSpace(), n, randomTree(seed, n), 0, seed, p)
	}, 1+orpSorts(m, seed+1, p.Normalized(m))+3+1+3, 1+1+1)

	// Tree contraction, 64 leaves (127 nodes): the leaf numbering's list
	// ranking of the 254 structural arcs, then log2 64 = 6 rounds (the
	// slack round finds one node and does not run). A round sorts 20
	// times — per half round the parent gatherer sort, the sibling re-sort
	// and six writes; then three relabel re-sorts and the compaction's
	// plane sort — and un-sorts 19 times: five parent and three sibling
	// replays per half round, three relabel reads.
	const leaves, rounds = 64, 6
	tr := randomExprTree(seed, leaves)
	check("tree contraction 64 leaves", func() {
		EvalTreeOblivious(c, mem.NewSpace(), tr, seed, p)
	}, orpSorts(2*tr.N, seed, p.Normalized(tr.N))+3+rounds*20, 1+rounds*19)
}
