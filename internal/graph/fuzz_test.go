package graph

// Native fuzz targets for the graph operators: the fuzzer mutates
// (seed, n, m, backend) tuples, each input derives a random graph —
// self-loops and duplicate edges included — and replays the oblivious
// op against its plain sequential reference; the list and tree targets do
// the same with (seed, size, …, backend) and a random list or tree.
// `go test` runs the seed corpus as regular tests; CI's `make fuzz-smoke`
// step runs each target under -fuzz for a short budget.

import (
	"slices"
	"testing"

	"oblivmc/internal/core"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/prng"
)

// fuzzGraph folds raw fuzz bytes into a legal graph: n in [2, 33],
// m in [1, 48], endpoints drawn freely (duplicates and self-loops are
// valid inputs and must not break the ops).
func fuzzGraph(seed uint64, n, m uint8) (int, [][2]int) {
	nv := int(n%32) + 2
	mv := int(m%48) + 1
	src := prng.New(seed)
	edges := make([][2]int, mv)
	for i := range edges {
		edges[i] = [2]int{src.Intn(nv), src.Intn(nv)}
	}
	return nv, edges
}

// fuzzSorter picks the sort backend under test from a fuzz byte.
func fuzzSorter(backend uint8) core.Params {
	p := testParams()
	if backend%2 == 1 {
		be := diffBackends()[1] // shuffle with fixed seed
		p.Sorter = be.srt()
	}
	return p
}

func FuzzConnectedComponents(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(10))
	f.Add(uint64(2), uint8(31), uint8(47))
	f.Add(uint64(3), uint8(2), uint8(1))
	f.Add(uint64(4), uint8(20), uint8(5))
	// n=12, m=11: AS's star check once re-promoted a depth-2 vertex whose
	// parent was still marked, and the graph under-merged.
	f.Add(uint64(28), uint8('J'), uint8(':'))
	f.Fuzz(func(t *testing.T, seed uint64, n, m uint8) {
		nv, edges := fuzzGraph(seed, n, m)
		want := ConnectedComponentsSeq(nv, edges)
		got, _ := ConnectedComponentsMinHook(forkjoin.Serial(), mem.NewSpace(), nv, edges, 0, testParams())
		if !sameInts(got, want) {
			t.Fatalf("minhook(n=%d, m=%d, seed=%d): labels %v, want %v", nv, len(edges), seed, got, want)
		}
		as := ConnectedComponentsOblivious(forkjoin.Serial(), mem.NewSpace(), nv, edges)
		if !samePartition(as, want) {
			t.Fatalf("as(n=%d, m=%d, seed=%d): partition %v, want %v", nv, len(edges), seed, as, want)
		}
	})
}

func FuzzMSF(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(10), uint8(0))
	f.Add(uint64(2), uint8(31), uint8(47), uint8(1))
	f.Add(uint64(3), uint8(2), uint8(1), uint8(0))
	f.Add(uint64(4), uint8(16), uint8(30), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, n, m, backend uint8) {
		nv, edges := fuzzGraph(seed, n, m)
		src := prng.New(seed ^ 0xabcd)
		wedges := make([]WEdge, len(edges))
		for i, e := range edges {
			// Small weight range on purpose: duplicate weights exercise
			// the edge-id tie-break.
			wedges[i] = WEdge{U: e[0], V: e[1], W: src.Uint64n(6)}
		}
		want := MinimumSpanningForestSeq(nv, wedges)
		got := MinimumSpanningForestOblivious(forkjoin.Serial(), mem.NewSpace(), nv, wedges)
		if !sameInts(got, want) {
			t.Fatalf("msf(n=%d, m=%d, seed=%d): chose %v, want %v", nv, len(wedges), seed, got, want)
		}
	})
}

// FuzzListRank ranks a fuzzer-shaped list of n in [1, 128] entries and
// reranks it under a second weight vector on the same permutation and
// routing. Weights are drawn below bound+1, so bound 0 reranks all-zero
// weights; the first ranking is unweighted at an even bound.
func FuzzListRank(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(127), uint8(9), uint8(1))
	f.Add(uint64(3), uint8(0), uint8(1), uint8(0))
	f.Add(uint64(4), uint8(1), uint8(255), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, n, bound, backend uint8) {
		nv := int(n%128) + 1
		succ := randomListSucc(seed, nv)
		src := prng.New(seed ^ 0x5eed)
		draw := func() []uint64 {
			w := make([]uint64, nv)
			for i := range w {
				w[i] = src.Uint64n(uint64(bound) + 1)
			}
			return w
		}
		var w0 []uint64
		if bound%2 == 1 {
			w0 = draw()
		}
		w1 := draw()
		rank, rerank := rankList(forkjoin.Serial(), mem.NewSpace(), succ, w0, seed, fuzzSorter(backend))
		if want := ListRankSeq(succ, w0); !slices.Equal(rank, want) {
			t.Fatalf("rank(n=%d, seed=%d): %v, want %v", nv, seed, rank, want)
		}
		if got, want := rerank(w1), ListRankSeq(succ, w1); !slices.Equal(got, want) {
			t.Fatalf("rerank(n=%d, seed=%d): %v, want %v", nv, seed, got, want)
		}
	})
}

// fuzzTree folds raw fuzz bytes into a random tree on n in [1, 64]
// vertices: vertex v > 0 hangs off a uniformly drawn earlier vertex, under
// a random relabelling, so paths, stars and bushy trees all occur.
func fuzzTree(seed uint64, n uint8) (int, [][2]int) {
	nv := int(n%64) + 1
	src := prng.New(seed)
	label := src.Perm(nv)
	edges := make([][2]int, 0, nv-1)
	for v := 1; v < nv; v++ {
		edges = append(edges, [2]int{label[src.Intn(v)], label[v]})
	}
	return nv, edges
}

func FuzzTreeFunctions(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(63), uint8(40), uint8(1))
	f.Add(uint64(3), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(4), uint8(1), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, n, root, backend uint8) {
		nv, edges := fuzzTree(seed, n)
		r := int(root) % nv
		want := TreeFunctionsSeq(nv, edges, r)
		got := TreeFunctionsOblivious(forkjoin.Serial(), mem.NewSpace(), nv, edges, r, seed, fuzzSorter(backend))
		if !sameInts(got.Parent, want.Parent) || !slices.Equal(got.Depth, want.Depth) ||
			!slices.Equal(got.Preorder, want.Preorder) || !slices.Equal(got.Postorder, want.Postorder) ||
			!slices.Equal(got.SubtreeSize, want.SubtreeSize) {
			t.Fatalf("tree functions(n=%d, root=%d, seed=%d): %+v, want %+v", nv, r, seed, got, want)
		}
	})
}

func FuzzEvalTree(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(40), uint8(7), uint8(1))
	f.Add(uint64(3), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(4), uint8(2), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, leaves, shape, backend uint8) {
		tr := fuzzExprTree(seed, int(leaves%48)+1, shape)
		want := EvalTreeSeq(tr)
		if got := EvalTreeOblivious(forkjoin.Serial(), mem.NewSpace(), tr, seed, fuzzSorter(backend)); got != want {
			t.Fatalf("eval tree(leaves=%d, shape=%d, seed=%d): %d, want %d", (tr.N+1)/2, shape%3, seed, got, want)
		}
	})
}

// fuzzExprTree is a full binary expression tree over the given leaf count,
// of one of three shapes picked by shape: random, left spine or balanced.
// The spine's and the balanced tree's leaf values and operators are drawn
// from seed over the whole word, so the ring arithmetic wraps.
func fuzzExprTree(seed uint64, leaves int, shape uint8) ExprTree {
	var tr ExprTree
	switch shape % 3 {
	case 0:
		return randomExprTree(seed, leaves)
	case 1:
		tr = spineExprTree(leaves)
	default:
		tr = balancedExprTree(leaves)
	}
	src := prng.New(seed)
	for v := 0; v < tr.N; v++ {
		tr.LeafVal[v] = src.Uint64()
		tr.Op[v] = uint8(src.Intn(2))
	}
	return tr
}
