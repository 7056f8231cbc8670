package graph

// Trace-obliviousness tests for the graph operators via the oblivtest
// harness: a graph op's fingerprint must be a function of the public
// shape only — (n, m, rounds) for fixed-round connected components,
// (n, m) for the fixed-iteration Awerbuch–Shiloach variant — never of
// which edges the graph actually contains. Revealed-convergence modes
// are excluded by design (the executed round count is declared public),
// so the MSF check pins fingerprints across weight distributions on a
// family whose revealed iteration count is structure-invariant. The
// metered bracket at the end is the grainFor invariant: fingerprints are
// defined by the sequential metered executor and cannot move because
// multi-worker pool runs happened in between.

import (
	"testing"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv/oblivtest"
	"oblivmc/internal/prng"
)

// lockstepEdges draws m edges over n vertices from the content source —
// self-loops and duplicates allowed; they are secret contents like any
// other edge.
func lockstepEdges(content *prng.Source, n, m int) [][2]int {
	edges := make([][2]int, m)
	for i := range edges {
		edges[i] = [2]int{content.Intn(n), content.Intn(n)}
	}
	return edges
}

// TestCCMinHookLockstep: shape-randomized lockstep for fixed-round
// min-hook CC. Within each round all variants share (n, m, rounds) and
// differ only in edge contents; their traces must coincide.
func TestCCMinHookLockstep(t *testing.T) {
	oblivtest.Lockstep(t, "cc-minhook", 4, 3, 42,
		func(c *forkjoin.Ctx, sp *mem.Space, shape, content *prng.Source) {
			n := 8 + shape.Intn(25)
			m := n/2 + shape.Intn(n)
			rounds := 2 + shape.Intn(3)
			ConnectedComponentsMinHook(c, sp, n, lockstepEdges(content, n, m), rounds, testParams())
		})
}

// TestCCASLockstep: same for the fixed-iteration Awerbuch–Shiloach CC,
// whose iteration count is a function of n alone.
func TestCCASLockstep(t *testing.T) {
	oblivtest.Lockstep(t, "cc-as", 3, 3, 43,
		func(c *forkjoin.Ctx, sp *mem.Space, shape, content *prng.Source) {
			n := 6 + shape.Intn(14)
			m := n/2 + shape.Intn(n)
			ConnectedComponentsOblivious(c, sp, n, lockstepEdges(content, n, m))
		})
}

// TestCCMinHookShapeSensitivity: the inverse guard — a different public
// shape must change the view, or the fingerprint stopped observing the
// computation.
func TestCCMinHookShapeSensitivity(t *testing.T) {
	run := func(n, m, rounds int) oblivtest.Body {
		return func(c *forkjoin.Ctx, sp *mem.Space) {
			ConnectedComponentsMinHook(c, sp, n, lockstepEdges(prng.New(9), n, m), rounds, testParams())
		}
	}
	oblivtest.Different(t, "cc-minhook n", run(16, 20, 3), run(24, 20, 3))
	oblivtest.Different(t, "cc-minhook m", run(16, 20, 3), run(16, 28, 3))
	oblivtest.Different(t, "cc-minhook rounds", run(16, 20, 3), run(16, 20, 4))
}

// TestMSFFingerprintValueDistributions: MSF reveals its iteration count,
// so obliviousness is conditioned on it; on a star every weight
// assignment converges in the same number of iterations, which makes the
// remaining trace a pure function of shape. Three very different weight
// distributions over the same star must produce identical views.
func TestMSFFingerprintValueDistributions(t *testing.T) {
	const n = 16
	starWeights := func(draw func(i int) uint64) oblivtest.Body {
		return func(c *forkjoin.Ctx, sp *mem.Space) {
			edges := make([]WEdge, n-1)
			for i := range edges {
				edges[i] = WEdge{U: 0, V: i + 1, W: draw(i)}
			}
			MinimumSpanningForestOblivious(c, sp, n, edges)
		}
	}
	small := prng.New(5)
	large := prng.New(6)
	oblivtest.FingerprintEqual(t, "msf star weights",
		starWeights(func(i int) uint64 { return small.Uint64n(4) }),
		starWeights(func(i int) uint64 { return 1<<15 - 1 - uint64(i) }),
		starWeights(func(i int) uint64 { return large.Uint64n(1 << 15) }),
	)
}

// TestGraphFingerprintUnaffectedByParallelRuns is the grainFor-invariant
// bracket for the graph ops: metered fingerprints taken before and after
// a batch of multi-worker pool runs of the same op must agree bit for
// bit — parallel execution may never perturb the adversary's view, which
// is defined by the sequential metered executor alone.
func TestGraphFingerprintUnaffectedByParallelRuns(t *testing.T) {
	const n, m, rounds = 20, 30, 3
	edges := lockstepEdges(prng.New(77), n, m)
	fp := func() interface{} {
		return oblivtest.Fingerprint(func(c *forkjoin.Ctx, sp *mem.Space) {
			ConnectedComponentsMinHook(c, sp, n, edges, rounds, testParams())
		})
	}
	before := fp()
	for _, workers := range []int{2, 4} {
		forkjoin.RunParallel(workers, func(c *forkjoin.Ctx) {
			ConnectedComponentsMinHook(c, mem.NewSpace(), n, edges, rounds, testParams())
		})
	}
	if after := fp(); after != before {
		t.Fatalf("metered fingerprint moved across parallel runs: %v != %v", after, before)
	}
}

// TestEulerTourLockstep: the Euler tour draws no randomness, so its whole
// trace is a function of n — two trees of the same size, rooted at
// different vertices, must give identical views; a different n must not.
func TestEulerTourLockstep(t *testing.T) {
	tour := func(n int, seed uint64, root int) oblivtest.Body {
		edges := randomTree(seed, n)
		return func(c *forkjoin.Ctx, sp *mem.Space) {
			EulerTourOblivious(c, sp, n, edges, root)
		}
	}
	oblivtest.FingerprintEqual(t, "euler tour n=40", tour(40, 1, 0), tour(40, 2, 0), tour(40, 3, 17))
	oblivtest.Different(t, "euler tour n", tour(40, 1, 0), tour(41, 1, 0))
}

// TestTreeKernelCostsShapeIndependent: tree functions and tree contraction
// run list ranking, whose pointer jumps are distribution-oblivious only
// (TestListRankObliviousTraceIndependent), so their traces differ across
// tree shapes; their work, span and memory operations must not. A path, a
// star and a random tree of one size; a left spine, a balanced tree and a
// random tree of one leaf count.
func TestTreeKernelCostsShapeIndependent(t *testing.T) {
	const n = 32
	path, star := make([][2]int, 0, n-1), make([][2]int, 0, n-1)
	for v := 1; v < n; v++ {
		path = append(path, [2]int{v - 1, v})
		star = append(star, [2]int{0, v})
	}
	var tf []*forkjoin.Metrics
	for _, edges := range [][][2]int{path, star, randomTree(5, n)} {
		tf = append(tf, oblivtest.Metered(func(c *forkjoin.Ctx, sp *mem.Space) {
			TreeFunctionsOblivious(c, sp, n, edges, 3, 7, testParams())
		}))
	}
	sameCosts(t, "tree functions", tf)

	const leaves = 16
	var tc []*forkjoin.Metrics
	for _, tr := range []ExprTree{spineExprTree(leaves), balancedExprTree(leaves), randomExprTree(9, leaves)} {
		tc = append(tc, oblivtest.Metered(func(c *forkjoin.Ctx, sp *mem.Space) {
			EvalTreeOblivious(c, sp, tr, 7, testParams())
		}))
	}
	sameCosts(t, "tree contraction", tc)
}

// sameCosts fails t unless every run's work, span and memory operations
// equal the first's.
func sameCosts(t *testing.T, label string, runs []*forkjoin.Metrics) {
	t.Helper()
	for i, m := range runs[1:] {
		if m.Work != runs[0].Work || m.Span != runs[0].Span || m.MemOps != runs[0].MemOps {
			t.Errorf("%s: shape %d costs W=%d T=%d ops=%d, shape 0 W=%d T=%d ops=%d", label, i+1,
				m.Work, m.Span, m.MemOps, runs[0].Work, runs[0].Span, runs[0].MemOps)
		}
	}
}

// spineExprTree is the left spine (((v0 op v1) op v2) ...) over leaves
// leaves, leaf i valued i+1.
func spineExprTree(leaves int) ExprTree {
	tr := newExprTree(leaves)
	cur := 0
	for i := 1; i < leaves; i++ {
		v := leaves + i - 1
		tr.Left[v], tr.Right[v], tr.Op[v] = cur, i, uint8(i%2)
		cur = v
	}
	tr.Root = cur
	return tr
}

// balancedExprTree is the balanced binary tree over leaves leaves, built
// level by level by pairing neighbours; an odd one out moves up a level.
func balancedExprTree(leaves int) ExprTree {
	tr := newExprTree(leaves)
	level := make([]int, leaves)
	for i := range level {
		level[i] = i
	}
	next := leaves
	for len(level) > 1 {
		up := level[:0:0]
		for i := 0; i+1 < len(level); i += 2 {
			tr.Left[next], tr.Right[next], tr.Op[next] = level[i], level[i+1], uint8(next%2)
			up = append(up, next)
			next++
		}
		if len(level)%2 == 1 {
			up = append(up, level[len(level)-1])
		}
		level = up
	}
	tr.Root = level[0]
	return tr
}

// newExprTree is a tree of 2·leaves−1 nodes with no internal structure
// yet: nodes [0, leaves) are leaves valued i+1, every child id −1.
func newExprTree(leaves int) ExprTree {
	n := 2*leaves - 1
	tr := ExprTree{N: n, Left: make([]int, n), Right: make([]int, n), Op: make([]uint8, n), LeafVal: make([]uint64, n)}
	for i := range tr.Left {
		tr.Left[i], tr.Right[i] = -1, -1
		if i < leaves {
			tr.LeafVal[i] = uint64(i + 1)
		}
	}
	return tr
}
