package graph

import (
	"runtime"
	"slices"
	"testing"

	"oblivmc/internal/bitonic"
	"oblivmc/internal/core"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/prng"
)

// testParams keeps the oblivious machinery small for unit tests.
func testParams() core.Params {
	return core.Params{Z: 32, Gamma: 4}
}

func randomListSucc(seed uint64, n int) []int {
	src := prng.New(seed)
	order := src.Perm(n)
	succ := make([]int, n)
	for k := 0; k < n; k++ {
		if k == n-1 {
			succ[order[k]] = order[k]
		} else {
			succ[order[k]] = order[k+1]
		}
	}
	return succ
}

func TestListRankObliviousUnweighted(t *testing.T) {
	for _, n := range []int{1, 2, 7, 33, 100} {
		succ := randomListSucc(uint64(n), n)
		want := ListRankSeq(succ, nil)
		sp := mem.NewSpace()
		got := ListRankOblivious(forkjoin.Serial(), sp, succ, nil, 5, testParams())
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: rank[%d] = %d, want %d", n, i, got[i], want[i])
			}
		}
	}
}

func TestListRankObliviousWeighted(t *testing.T) {
	const n = 50
	succ := randomListSucc(3, n)
	src := prng.New(9)
	w := make([]uint64, n)
	for i := range w {
		w[i] = src.Uint64n(1000)
	}
	want := ListRankSeq(succ, w)
	sp := mem.NewSpace()
	got := ListRankOblivious(forkjoin.Serial(), sp, succ, w, 7, testParams())
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestListRankDirectMatchesSeq(t *testing.T) {
	const n = 64
	succ := randomListSucc(11, n)
	want := ListRankSeq(succ, nil)
	sp := mem.NewSpace()
	got := ListRankDirect(forkjoin.Serial(), sp, succ, nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("direct rank[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestListRankRerank: several weight vectors reranked on one rankList —
// one permutation and one successor routing — match the sequential
// reference, on both sort backends.
func TestListRankRerank(t *testing.T) {
	for _, be := range diffBackends() {
		for _, n := range []int{1, 2, 3, 64, 100} {
			succ := randomListSucc(uint64(n), n)
			src := prng.New(uint64(n) + 17)
			random := func() []uint64 {
				w := make([]uint64, n)
				for i := range w {
					w[i] = src.Uint64n(1000)
				}
				return w
			}
			w0 := random()
			rank, rerank := rankList(forkjoin.Serial(), mem.NewSpace(), succ, w0, 5, diffParams(be.srt()))
			if want := ListRankSeq(succ, w0); !slices.Equal(rank, want) {
				t.Fatalf("%s n=%d: ranks %v, want %v", be.name, n, rank, want)
			}
			for k, w := range [][]uint64{nil, make([]uint64, n), random(), random(), nil} {
				if got, want := rerank(w), ListRankSeq(succ, w); !slices.Equal(got, want) {
					t.Fatalf("%s n=%d rerank %d: %v, want %v", be.name, n, k, got, want)
				}
			}
		}
	}
}

func TestListRankObliviousTraceIndependent(t *testing.T) {
	// Same length, same tape seeds, different list structures: traces of
	// the oblivious phases are equal; the pointer-jumping phase touches
	// random positions whose distribution is structure-independent, so
	// with the SAME permutation tape but different inputs the overall
	// trace differs in general. We therefore check the strongest sound
	// property: the trace is a deterministic function of (n, seed) given
	// the input — re-running the same input reproduces it — and the
	// work/span/memops are structure-independent.
	const n = 40
	run := func(seed uint64) (*forkjoin.Metrics, []uint64) {
		succ := randomListSucc(seed, n)
		sp := mem.NewSpace()
		var got []uint64
		m := forkjoin.RunMetered(forkjoin.MeterOpts{EnableTrace: true}, func(c *forkjoin.Ctx) {
			got = ListRankOblivious(c, sp, succ, nil, 99, testParams())
		})
		return m, got
	}
	a, _ := run(1)
	b, _ := run(2)
	if a.Work != b.Work || a.Span != b.Span || a.MemOps != b.MemOps {
		t.Fatalf("cost profile depends on list structure: %+v vs %+v", a, b)
	}
	a2, _ := run(1)
	if !a.Trace.Equal(a2.Trace) {
		t.Fatal("trace not reproducible for identical input")
	}
}

func randomTree(seed uint64, n int) [][2]int {
	src := prng.New(seed)
	edges := make([][2]int, 0, n-1)
	for v := 1; v < n; v++ {
		p := src.Intn(v)
		edges = append(edges, [2]int{p, v})
	}
	return edges
}

func TestEulerTourObliviousIsValidTour(t *testing.T) {
	for _, n := range []int{2, 3, 8, 20} {
		edges := randomTree(uint64(n), n)
		root := 0
		sp := mem.NewSpace()
		tau := EulerTourOblivious(forkjoin.Serial(), sp, n, edges, root)
		m := 2 * len(edges)
		// Walk from the start arc; must visit every arc exactly once.
		start := -1
		ref := EulerTourSeq(n, edges, root)
		for a := 0; a < m; a++ {
			if tau[a] != ref[a] {
				t.Fatalf("n=%d: tau[%d] = %d, ref %d", n, a, tau[a], ref[a])
			}
		}
		// Find the arc that nothing points to (the start).
		pointed := make([]bool, m+1)
		for a := 0; a < m; a++ {
			pointed[tau[a]] = true
		}
		for a := 0; a < m; a++ {
			if !pointed[a] {
				start = a
				break
			}
		}
		if start < 0 {
			t.Fatalf("n=%d: no start arc", n)
		}
		seen := make([]bool, m)
		cur := start
		count := 0
		for cur != m {
			if seen[cur] {
				t.Fatalf("n=%d: arc %d visited twice", n, cur)
			}
			seen[cur] = true
			count++
			cur = tau[cur]
		}
		if count != m {
			t.Fatalf("n=%d: tour visits %d arcs, want %d", n, count, m)
		}
	}
}

// bfsDepths computes depths independently of the Euler machinery.
func bfsDepths(n int, edges [][2]int, root int) []uint64 {
	adj := make([][]int, n)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	depth := make([]uint64, n)
	visited := make([]bool, n)
	queue := []int{root}
	visited[root] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if !visited[w] {
				visited[w] = true
				depth[w] = depth[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return depth
}

func checkTreeFuncs(t *testing.T, n int, edges [][2]int, root int, tf TreeFuncs) {
	t.Helper()
	depths := bfsDepths(n, edges, root)
	// Parent and depth against BFS (independent reference).
	for v := 0; v < n; v++ {
		if tf.Depth[v] != depths[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, tf.Depth[v], depths[v])
		}
		if v == root {
			if tf.Parent[v] != root {
				t.Fatalf("parent[root] = %d", tf.Parent[v])
			}
		} else if depths[tf.Parent[v]] != depths[v]-1 {
			t.Fatalf("parent[%d] = %d not one level up", v, tf.Parent[v])
		}
	}
	// Preorder/postorder are permutations of 0..n-1.
	seenPre := make([]bool, n)
	seenPost := make([]bool, n)
	for v := 0; v < n; v++ {
		if tf.Preorder[v] >= uint64(n) || seenPre[tf.Preorder[v]] {
			t.Fatalf("preorder not a permutation at %d", v)
		}
		if tf.Postorder[v] >= uint64(n) || seenPost[tf.Postorder[v]] {
			t.Fatalf("postorder not a permutation at %d", v)
		}
		seenPre[tf.Preorder[v]] = true
		seenPost[tf.Postorder[v]] = true
	}
	// Subtree sizes and DFS interval containment: w is in v's subtree iff
	// pre(v) <= pre(w) < pre(v)+size(v), and post(v) is the max post in
	// the subtree.
	sizes := make([]uint64, n)
	var acc func(v int) uint64
	children := make([][]int, n)
	for v := 0; v < n; v++ {
		if v != root {
			children[tf.Parent[v]] = append(children[tf.Parent[v]], v)
		}
	}
	acc = func(v int) uint64 {
		s := uint64(1)
		for _, w := range children[v] {
			s += acc(w)
		}
		sizes[v] = s
		return s
	}
	acc(root)
	for v := 0; v < n; v++ {
		if tf.SubtreeSize[v] != sizes[v] {
			t.Fatalf("size[%d] = %d, want %d", v, tf.SubtreeSize[v], sizes[v])
		}
		for _, w := range children[v] {
			if !(tf.Preorder[v] < tf.Preorder[w] && tf.Preorder[w] < tf.Preorder[v]+tf.SubtreeSize[v]) {
				t.Fatalf("preorder interval violated for child %d of %d", w, v)
			}
			if tf.Postorder[w] >= tf.Postorder[v] {
				t.Fatalf("postorder order violated for child %d of %d", w, v)
			}
		}
	}
}

func TestTreeFunctionsSeq(t *testing.T) {
	for _, n := range []int{1, 2, 5, 30} {
		edges := randomTree(uint64(n)+5, n)
		tf := TreeFunctionsSeq(n, edges, 0)
		checkTreeFuncs(t, n, edges, 0, tf)
	}
}

func TestTreeFunctionsOblivious(t *testing.T) {
	for _, n := range []int{2, 4, 12, 24} {
		edges := randomTree(uint64(n)+7, n)
		sp := mem.NewSpace()
		tf := TreeFunctionsOblivious(forkjoin.Serial(), sp, n, edges, 0, 13, testParams())
		checkTreeFuncs(t, n, edges, 0, tf)
		// And exact agreement with the sequential tour walk.
		ref := TreeFunctionsSeq(n, edges, 0)
		for v := 0; v < n; v++ {
			if tf.Preorder[v] != ref.Preorder[v] || tf.Postorder[v] != ref.Postorder[v] {
				t.Fatalf("n=%d: orders differ from sequential reference at %d", n, v)
			}
		}
	}
}

func TestTreeFunctionsNonZeroRoot(t *testing.T) {
	const n = 10
	edges := randomTree(21, n)
	sp := mem.NewSpace()
	root := 7
	tf := TreeFunctionsOblivious(forkjoin.Serial(), sp, n, edges, root, 3, testParams())
	checkTreeFuncs(t, n, edges, root, tf)
}

// randomExprTree builds a random full binary expression tree with n leaves.
func randomExprTree(seed uint64, leaves int) ExprTree {
	src := prng.New(seed)
	n := 2*leaves - 1
	t := ExprTree{
		N:       n,
		Left:    make([]int, n),
		Right:   make([]int, n),
		Op:      make([]uint8, n),
		LeafVal: make([]uint64, n),
	}
	for i := range t.Left {
		t.Left[i] = -1
		t.Right[i] = -1
	}
	// Build bottom-up: repeatedly combine two random roots.
	roots := make([]int, leaves)
	for i := 0; i < leaves; i++ {
		roots[i] = i
		t.LeafVal[i] = src.Uint64n(1 << 20)
	}
	next := leaves
	for len(roots) > 1 {
		i := src.Intn(len(roots))
		a := roots[i]
		roots[i] = roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		j := src.Intn(len(roots))
		b := roots[j]
		t.Left[next] = a
		t.Right[next] = b
		t.Op[next] = uint8(src.Intn(2))
		roots[j] = next
		next++
	}
	t.Root = roots[0]
	return t
}

func TestEvalTreeSeq(t *testing.T) {
	// 2*(3+4) = 14
	tr := ExprTree{
		N: 5, Root: 4,
		Left:    []int{-1, -1, -1, -1, 2},
		Right:   []int{-1, -1, -1, -1, 3},
		Op:      []uint8{0, 0, 0, 0, opMul},
		LeafVal: []uint64{0, 0, 2, 0, 0},
	}
	// node 3 = (0 + 1)
	tr.Left[3], tr.Right[3] = 0, 1
	tr.Op[3] = opAdd
	tr.LeafVal[0], tr.LeafVal[1] = 3, 4
	if got := EvalTreeSeq(tr); got != 14 {
		t.Fatalf("got %d, want 14", got)
	}
}

func TestEvalTreeObliviousMatchesSeq(t *testing.T) {
	for _, leaves := range []int{1, 2, 3, 5, 9, 16} {
		tr := randomExprTree(uint64(leaves)+1, leaves)
		want := EvalTreeSeq(tr)
		sp := mem.NewSpace()
		got := EvalTreeOblivious(forkjoin.Serial(), sp, tr, 5, testParams())
		if got != want {
			t.Fatalf("leaves=%d: got %d, want %d", leaves, got, want)
		}
	}
}

func TestEvalTreeObliviousDeepTree(t *testing.T) {
	// Left spine: (((v0 op v1) op v2) ...) — worst case for rake schedules.
	const leaves = 12
	n := 2*leaves - 1
	tr := ExprTree{N: n, Left: make([]int, n), Right: make([]int, n), Op: make([]uint8, n), LeafVal: make([]uint64, n)}
	for i := range tr.Left {
		tr.Left[i] = -1
		tr.Right[i] = -1
	}
	src := prng.New(77)
	for i := 0; i < leaves; i++ {
		tr.LeafVal[i] = src.Uint64n(100) + 1
	}
	cur := 0
	next := leaves
	for i := 1; i < leaves; i++ {
		tr.Left[next] = cur
		tr.Right[next] = i
		tr.Op[next] = uint8(src.Intn(2))
		cur = next
		next++
	}
	tr.Root = cur
	want := EvalTreeSeq(tr)
	sp := mem.NewSpace()
	got := EvalTreeOblivious(forkjoin.Serial(), sp, tr, 9, testParams())
	if got != want {
		t.Fatalf("got %d, want %d", got, want)
	}
}

func randomGraph(seed uint64, n, m int) [][2]int {
	src := prng.New(seed)
	edges := make([][2]int, 0, m)
	for len(edges) < m {
		u, v := src.Intn(n), src.Intn(n)
		if u != v {
			edges = append(edges, [2]int{u, v})
		}
	}
	return edges
}

func samePartition(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	mapping := map[int]int{}
	rev := map[int]int{}
	for i := range a {
		if m, ok := mapping[a[i]]; ok {
			if m != b[i] {
				return false
			}
		} else {
			if _, ok := rev[b[i]]; ok {
				return false
			}
			mapping[a[i]] = b[i]
			rev[b[i]] = a[i]
		}
	}
	return true
}

func TestCCObliviousMatchesUnionFind(t *testing.T) {
	cases := []struct{ n, m int }{{8, 6}, {16, 10}, {32, 20}, {24, 60}}
	for _, cs := range cases {
		edges := randomGraph(uint64(cs.n*cs.m), cs.n, cs.m)
		want := ConnectedComponentsSeq(cs.n, edges)
		sp := mem.NewSpace()
		got := ConnectedComponentsOblivious(forkjoin.Serial(), sp, cs.n, edges)
		if !samePartition(got, want) {
			t.Fatalf("n=%d m=%d: partition mismatch\n got %v\nwant %v", cs.n, cs.m, got, want)
		}
	}
}

func TestCCObliviousEdgeCases(t *testing.T) {
	sp := mem.NewSpace()
	// No edges: all singletons.
	got := ConnectedComponentsOblivious(forkjoin.Serial(), sp, 5, nil)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			if got[i] == got[j] {
				t.Fatal("singletons merged")
			}
		}
	}
}

func TestCCDirectMatchesUnionFind(t *testing.T) {
	edges := randomGraph(42, 40, 50)
	want := ConnectedComponentsSeq(40, edges)
	sp := mem.NewSpace()
	got := ConnectedComponentsDirect(forkjoin.Serial(), sp, 40, edges)
	if !samePartition(got, want) {
		t.Fatal("direct CC mismatch")
	}
}

func TestCCObliviousTraceIndependent(t *testing.T) {
	// Same (n, m), different structure → identical access pattern.
	const n, m = 12, 10
	run := func(seed uint64) *forkjoin.Metrics {
		edges := randomGraph(seed, n, m)
		sp := mem.NewSpace()
		return forkjoin.RunMetered(forkjoin.MeterOpts{EnableTrace: true}, func(c *forkjoin.Ctx) {
			ConnectedComponentsOblivious(c, sp, n, edges)
		})
	}
	if !run(1).Trace.Equal(run(2).Trace) {
		t.Fatal("oblivious CC access pattern depends on the graph")
	}
}

func randomWeightedGraph(seed uint64, n, m int) []WEdge {
	src := prng.New(seed)
	edges := make([]WEdge, 0, m)
	for len(edges) < m {
		u, v := src.Intn(n), src.Intn(n)
		if u != v {
			edges = append(edges, WEdge{U: u, V: v, W: src.Uint64n(1 << 16)})
		}
	}
	return edges
}

func msfWeight(edges []WEdge, chosen []int) uint64 {
	var w uint64
	for _, e := range chosen {
		w += edges[e].W
	}
	return w
}

func TestMSFObliviousMatchesKruskal(t *testing.T) {
	cases := []struct{ n, m int }{{8, 12}, {16, 24}, {24, 40}}
	for _, cs := range cases {
		edges := randomWeightedGraph(uint64(cs.n+cs.m), cs.n, cs.m)
		want := MinimumSpanningForestSeq(cs.n, edges)
		sp := mem.NewSpace()
		got := MinimumSpanningForestOblivious(forkjoin.Serial(), sp, cs.n, edges)
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d edges chosen, want %d", cs.n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				// Distinct effective weights make the MSF unique, so the
				// edge sets must match exactly.
				t.Fatalf("n=%d: edge sets differ: got %v want %v", cs.n, got, want)
			}
		}
		if msfWeight(edges, got) != msfWeight(edges, want) {
			t.Fatal("weight mismatch")
		}
	}
}

func TestMSFDirectMatchesKruskal(t *testing.T) {
	edges := randomWeightedGraph(99, 30, 60)
	want := MinimumSpanningForestSeq(30, edges)
	sp := mem.NewSpace()
	got := MinimumSpanningForestDirect(forkjoin.Serial(), sp, 30, edges)
	if len(got) != len(want) {
		t.Fatalf("%d edges, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge sets differ: got %v want %v", got, want)
		}
	}
}

func TestMSFDisconnected(t *testing.T) {
	// Two components: forest has n - #components edges.
	edges := []WEdge{{0, 1, 5}, {1, 2, 3}, {3, 4, 7}}
	sp := mem.NewSpace()
	got := MinimumSpanningForestOblivious(forkjoin.Serial(), sp, 5, edges)
	if len(got) != 3 {
		t.Fatalf("chose %d edges, want 3", len(got))
	}
}

func TestGraphParallelMatchesSerial(t *testing.T) {
	const n, m = 20, 30
	edges := randomGraph(7, n, m)
	sp1 := mem.NewSpace()
	want := ConnectedComponentsOblivious(forkjoin.Serial(), sp1, n, edges)
	var got []int
	forkjoin.RunParallel(4, func(c *forkjoin.Ctx) {
		sp2 := mem.NewSpace()
		got = ConnectedComponentsOblivious(c, sp2, n, edges)
	})
	if !samePartition(got, want) {
		t.Fatal("parallel CC differs from serial")
	}
}

func TestTreeFunctionsDirectMatchesSeq(t *testing.T) {
	for _, n := range []int{2, 8, 24} {
		edges := randomTree(uint64(n)+9, n)
		ref := TreeFunctionsSeq(n, edges, 0)
		sp := mem.NewSpace()
		tf := TreeFunctionsDirect(forkjoin.Serial(), sp, n, edges, 0, 3)
		for v := 0; v < n; v++ {
			if tf.Parent[v] != ref.Parent[v] || tf.Depth[v] != ref.Depth[v] ||
				tf.Preorder[v] != ref.Preorder[v] || tf.Postorder[v] != ref.Postorder[v] ||
				tf.SubtreeSize[v] != ref.SubtreeSize[v] {
				t.Fatalf("n=%d: vertex %d mismatch", n, v)
			}
		}
	}
}

func TestEvalTreeDirectMatchesSeq(t *testing.T) {
	for _, leaves := range []int{1, 4, 10} {
		tr := randomExprTree(uint64(leaves)+3, leaves)
		want := EvalTreeSeq(tr)
		sp := mem.NewSpace()
		got := EvalTreeDirect(forkjoin.Serial(), sp, tr)
		if got != want {
			t.Fatalf("leaves=%d: got %d, want %d", leaves, got, want)
		}
	}
}

// TestMSFAllocsIndependentOfIterations: the run allocates its work space
// once, so a warmed MSF run allocates the same work arrays whatever its
// revealed iteration count. A star converges in one iteration and a path
// with increasing weights in several; at one (n, m) the bytes they allocate
// in objects of at least 4 KiB differ by less than one n-word plane on the
// serial executor. Smaller objects — the closures of fork trees, bound
// comparator kernels, sort layouts — are paid per pass and are not work
// space.
func TestMSFAllocsIndependentOfIterations(t *testing.T) {
	const n = 1 << 10
	star := make([]WEdge, 0, n-1)
	path := make([]WEdge, 0, n-1)
	for v := 1; v < n; v++ {
		star = append(star, WEdge{U: 0, V: v, W: uint64(v)})
		path = append(path, WEdge{U: v - 1, V: v, W: uint64(v)})
	}
	run := func(edges []WEdge) (bytes uint64, sorts int64) {
		MinimumSpanningForestOblivious(forkjoin.Serial(), mem.NewSpace(), n, edges)
		before, calls := arrayBytes(), bitonic.NetworkCalls()
		MinimumSpanningForestOblivious(forkjoin.Serial(), mem.NewSpace(), n, edges)
		return arrayBytes() - before, bitonic.NetworkCalls() - calls
	}
	sb, ss := run(star)
	pb, ps := run(path)
	if ss == ps {
		t.Fatalf("star and path both ran %d sorts: the iteration counts must differ", ss)
	}
	if diff := max(sb, pb) - min(sb, pb); diff >= 8*n {
		t.Fatalf("star run allocates %d bytes of arrays in %d sorts, path run %d in %d sorts: %d apart, want under one %d-byte plane",
			sb, ss, pb, ps, diff, 8*n)
	}
}

// TestMinHookAllocsIndependentOfRounds is TestMSFAllocsIndependentOfIterations
// for min-hook CC run to convergence: the run allocates its work space,
// the convergence test's scan tree included, once, so the work arrays a
// warmed run allocates do not grow with its revealed round count. A star
// converges in two rounds and a path in several.
func TestMinHookAllocsIndependentOfRounds(t *testing.T) {
	const n = 1 << 10
	star := make([][2]int, 0, n-1)
	path := make([][2]int, 0, n-1)
	for v := 1; v < n; v++ {
		star = append(star, [2]int{0, v})
		path = append(path, [2]int{v - 1, v})
	}
	run := func(edges [][2]int) (bytes uint64, rounds int) {
		ConnectedComponentsMinHook(forkjoin.Serial(), mem.NewSpace(), n, edges, 0, testParams())
		before := arrayBytes()
		_, rounds = ConnectedComponentsMinHook(forkjoin.Serial(), mem.NewSpace(), n, edges, 0, testParams())
		return arrayBytes() - before, rounds
	}
	sb, sr := run(star)
	pb, pr := run(path)
	if sr == pr {
		t.Fatalf("star and path both ran %d rounds: the round counts must differ", sr)
	}
	if diff := max(sb, pb) - min(sb, pb); diff >= 8*n {
		t.Fatalf("star run allocates %d bytes of arrays in %d rounds, path run %d in %d rounds: %d apart, want under one %d-byte plane",
			sb, sr, pb, pr, diff, 8*n)
	}
}

// TestPageRankAllocsIndependentOfIterations is
// TestMSFAllocsIndependentOfIterations for PageRank: the run allocates its
// groupings, gatherer and scan tree once, so a warmed run of 6 iterations
// allocates the same work arrays as one of 2.
func TestPageRankAllocsIndependentOfIterations(t *testing.T) {
	const n, m = 1 << 10, 1 << 12
	src := prng.New(25)
	edges := make([]WEdge, m)
	for i := range edges {
		edges[i] = WEdge{U: src.Intn(n), V: src.Intn(n)}
	}
	run := func(iters int) uint64 {
		PageRankOblivious(forkjoin.Serial(), mem.NewSpace(), n, edges, iters)
		before := arrayBytes()
		PageRankOblivious(forkjoin.Serial(), mem.NewSpace(), n, edges, iters)
		return arrayBytes() - before
	}
	b2, b6 := run(2), run(6)
	if diff := max(b2, b6) - min(b2, b6); diff >= 8*n {
		t.Fatalf("2 iterations allocate %d bytes of arrays, 6 allocate %d: %d apart, want under one %d-byte plane",
			b2, b6, diff, 8*n)
	}
}

// arrayBytes is the bytes allocated so far in heap objects of at least
// 4 KiB: the cumulative total less every smaller size class.
func arrayBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b := ms.TotalAlloc
	for _, c := range ms.BySize {
		if c.Size < 4096 {
			b -= c.Mallocs * uint64(c.Size)
		}
	}
	return b
}
