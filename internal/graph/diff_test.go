package graph

// Differential property tests for the graph operators on the
// ScheduledSorter seam: every oblivious op runs across both sort backends
// (bitonic network, shuffle composition with a fixed seed) and both
// execution modes (serial, 4-worker pool) over a fixed zoo of graph
// families — paths, stars, cliques, duplicate edges, self-loops,
// disconnected forests — and each run must match the plain sequential
// reference AND be byte-identical to every other combo. The suite runs
// under -race in CI, so the 4-worker legs exercise the forkjoin deques
// and grained scans with real concurrency (mirrors parallel_test.go at
// the package-root layer).

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"testing"

	"oblivmc/internal/bitonic"
	"oblivmc/internal/core"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/prng"
)

// diffBackend is one sort backend leg of the differential matrix. The
// sorter is constructed fresh per run: the shuffle sorter keeps a
// per-instance call counter, so sharing one across runs would make the
// "byte-identical" comparison depend on run order.
type diffBackend struct {
	name string
	srt  func() obliv.ScheduledSorter
}

func diffBackends() []diffBackend {
	return []diffBackend{
		{"bitonic", func() obliv.ScheduledSorter { return bitonic.CacheAgnostic{} }},
		{"shuffle", func() obliv.ScheduledSorter {
			seed := uint64(0x7e57)
			return &core.ShuffleSorter{FixedSeed: &seed, Crossover: 2}
		}},
	}
}

// diffExec is one execution-mode leg: serial, or a 4-worker pool (the
// pool legs are what -race bites on).
type diffExec struct {
	name string
	run  func(body func(c *forkjoin.Ctx))
}

func diffExecs() []diffExec {
	return []diffExec{
		{"serial", func(body func(c *forkjoin.Ctx)) { body(forkjoin.Serial()) }},
		{"workers4", func(body func(c *forkjoin.Ctx)) { forkjoin.RunParallel(4, body) }},
	}
}

// graphTestCtx honors the suite-wide OBLIVMC_TEST_MODE=parallel escalation
// (the `make test-parallel` matrix leg for this package): helpers that are
// not themselves part of the serial-vs-parallel matrix run on a shared
// 4-worker pool instead of the serial context, so the whole package's
// oblivious kernels execute concurrently under -race.
func graphTestCtx() *forkjoin.Ctx {
	if os.Getenv("OBLIVMC_TEST_MODE") != "parallel" {
		return forkjoin.Serial()
	}
	graphPoolOnce.Do(func() { graphPool = forkjoin.NewPool(4) })
	return graphPool.OwnerCtx()
}

var (
	graphPool     *forkjoin.Pool
	graphPoolOnce sync.Once
)

// diffParams is testParams with an explicit sorter, the way the public
// layer injects Config.SortBackend through relSorter.
func diffParams(srt obliv.ScheduledSorter) core.Params {
	p := testParams()
	p.Sorter = srt
	return p
}

// graphFamily is one unweighted test graph. Weighted variants derive
// weights deterministically from the family name via familyWeights.
type graphFamily struct {
	name  string
	n     int
	edges [][2]int
}

// graphFamilies is the differential zoo from the issue: path, star,
// clique, duplicated edges, self-loops, and a disconnected forest with
// isolated vertices. Sizes stay small so the full 2-backend × 2-exec
// matrix finishes quickly under -race.
func graphFamilies() []graphFamily {
	var fams []graphFamily

	const pn = 24
	path := make([][2]int, 0, pn-1)
	for i := 0; i+1 < pn; i++ {
		path = append(path, [2]int{i, i + 1})
	}
	fams = append(fams, graphFamily{"path", pn, path})

	const sn = 20
	star := make([][2]int, 0, sn-1)
	for i := 1; i < sn; i++ {
		star = append(star, [2]int{0, i})
	}
	fams = append(fams, graphFamily{"star", sn, star})

	const kn = 8
	var clique [][2]int
	for u := 0; u < kn; u++ {
		for v := u + 1; v < kn; v++ {
			clique = append(clique, [2]int{u, v})
		}
	}
	fams = append(fams, graphFamily{"clique", kn, clique})

	// Random graph with every edge duplicated (and a few triplicated).
	base := randomGraph(7, 16, 12)
	dup := append(append([][2]int{}, base...), base...)
	dup = append(dup, base[0], base[len(base)-1])
	fams = append(fams, graphFamily{"dup-edges", 16, dup})

	// Random graph plus self-loops, including one on an otherwise
	// isolated vertex.
	loops := append([][2]int{}, randomGraph(8, 15, 14)...)
	loops = append(loops, [2]int{3, 3}, [2]int{0, 0}, [2]int{15, 15})
	fams = append(fams, graphFamily{"self-loops", 16, loops})

	// Disconnected forest: a path component, a star component, one lone
	// edge, and trailing isolated vertices 19..21.
	var forest [][2]int
	for i := 0; i+1 < 8; i++ {
		forest = append(forest, [2]int{i, i + 1}) // path on 0..7
	}
	for v := 9; v < 16; v++ {
		forest = append(forest, [2]int{8, v}) // star on 8..15
	}
	forest = append(forest, [2]int{17, 18})
	fams = append(fams, graphFamily{"forest", 22, forest})

	return fams
}

// familyWeights derives a deterministic weighted version of a family,
// with deliberate duplicate weights so the edge-id tie-break is load
// bearing in the MSF differential.
func familyWeights(f graphFamily, seed uint64) []WEdge {
	src := prng.New(seed)
	ws := make([]WEdge, len(f.edges))
	for i, e := range f.edges {
		ws[i] = WEdge{U: e[0], V: e[1], W: src.Uint64n(8)}
	}
	return ws
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCCMinHookDifferentialFamilies: the min-hook CC labeling equals the
// sequential union-find reference exactly (converged labels are the
// minimum vertex id per component) on every family and execution mode,
// and the executed round count plus a fixed-rounds re-run agree across
// the modes. Min-hook sorts on the bitonic network whatever the sort
// backend, so there is no backend axis.
func TestCCMinHookDifferentialFamilies(t *testing.T) {
	for _, fam := range graphFamilies() {
		want := ConnectedComponentsSeq(fam.n, fam.edges)
		var ref []int
		refRounds := -1
		for _, ex := range diffExecs() {
			label := fmt.Sprintf("%s/%s", fam.name, ex.name)
			var got []int
			var rounds int
			ex.run(func(c *forkjoin.Ctx) {
				got, rounds = ConnectedComponentsMinHook(c, mem.NewSpace(), fam.n, fam.edges, 0, testParams())
			})
			if !sameInts(got, want) {
				t.Fatalf("%s: labels %v, want %v", label, got, want)
			}
			if ref == nil {
				ref, refRounds = got, rounds
			} else if !sameInts(got, ref) || rounds != refRounds {
				t.Fatalf("%s: combo diverged from first combo (rounds %d vs %d)", label, rounds, refRounds)
			}
			// Fixed public round count: same labels, no revealed
			// convergence check.
			var fixed []int
			ex.run(func(c *forkjoin.Ctx) {
				fixed, _ = ConnectedComponentsMinHook(c, mem.NewSpace(), fam.n, fam.edges, refRounds, testParams())
			})
			if !sameInts(fixed, want) {
				t.Fatalf("%s: fixed-rounds(%d) labels %v, want %v", label, refRounds, fixed, want)
			}
		}
	}
}

// TestCCASDifferentialFamilies: the Awerbuch–Shiloach labeling induces
// the same partition as the union-find reference on every family, and is
// byte-identical across execution modes (its sorts are the bitonic
// network's word-plane sorts on every backend).
func TestCCASDifferentialFamilies(t *testing.T) {
	for _, fam := range graphFamilies() {
		want := ConnectedComponentsSeq(fam.n, fam.edges)
		var ref []int
		for _, ex := range diffExecs() {
			label := fmt.Sprintf("%s/%s", fam.name, ex.name)
			var got []int
			ex.run(func(c *forkjoin.Ctx) {
				got = ConnectedComponentsOblivious(c, mem.NewSpace(), fam.n, fam.edges)
			})
			if !samePartition(got, want) {
				t.Fatalf("%s: partition %v, want %v", label, got, want)
			}
			if ref == nil {
				ref = got
			} else if !sameInts(got, ref) {
				t.Fatalf("%s: combo diverged from first combo:\n got %v\n ref %v", label, got, ref)
			}
		}
	}
}

// TestMSFDifferentialFamilies: the oblivious minimum spanning forest
// chooses exactly the Kruskal reference's edge indices (the edge-id
// tie-break makes the forest unique) on every weighted family and
// execution mode.
func TestMSFDifferentialFamilies(t *testing.T) {
	for _, fam := range graphFamilies() {
		wedges := familyWeights(fam, 1000+uint64(len(fam.edges)))
		want := MinimumSpanningForestSeq(fam.n, wedges)
		var ref []int
		for _, ex := range diffExecs() {
			label := fmt.Sprintf("%s/%s", fam.name, ex.name)
			var got []int
			ex.run(func(c *forkjoin.Ctx) {
				got = MinimumSpanningForestOblivious(c, mem.NewSpace(), fam.n, wedges)
			})
			if !sameInts(got, want) {
				t.Fatalf("%s: chose %v, want %v", label, got, want)
			}
			if ref == nil {
				ref = got
			} else if !sameInts(got, ref) {
				t.Fatalf("%s: combo diverged from first combo", label)
			}
		}
	}
}

// TestListRankDifferentialBackends: list ranking (unweighted and
// weighted) matches the sequential reference across backends and
// execution modes on randomized lists.
func TestListRankDifferentialBackends(t *testing.T) {
	for _, n := range []int{1, 33, 64} {
		succ := randomListSucc(uint64(100+n), n)
		src := prng.New(uint64(200 + n))
		w := make([]uint64, n)
		for i := range w {
			w[i] = src.Uint64n(1000)
		}
		for _, weights := range [][]uint64{nil, w} {
			want := ListRankSeq(succ, weights)
			for _, be := range diffBackends() {
				for _, ex := range diffExecs() {
					label := fmt.Sprintf("n=%d/weighted=%t/%s/%s", n, weights != nil, be.name, ex.name)
					var got []uint64
					ex.run(func(c *forkjoin.Ctx) {
						got = ListRankOblivious(c, mem.NewSpace(), succ, weights, 5, diffParams(be.srt()))
					})
					if len(got) != len(want) {
						t.Fatalf("%s: %d ranks, want %d", label, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s: rank[%d] = %d, want %d", label, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestTreeKernelsDifferentialBackends: tree functions and tree
// contraction match their sequential references across backends and
// execution modes on a path, a star and random trees / expression trees.
func TestTreeKernelsDifferentialBackends(t *testing.T) {
	const n = 24
	path, star := make([][2]int, 0, n-1), make([][2]int, 0, n-1)
	for v := 1; v < n; v++ {
		path = append(path, [2]int{v - 1, v})
		star = append(star, [2]int{v, 0})
	}
	trees := [][][2]int{path, star, randomTree(31, n)}
	exprs := []ExprTree{spineExprTree(9), balancedExprTree(12), randomExprTree(32, 17)}
	for _, be := range diffBackends() {
		for _, ex := range diffExecs() {
			for i, edges := range trees {
				want := TreeFunctionsSeq(n, edges, i)
				var got TreeFuncs
				ex.run(func(c *forkjoin.Ctx) {
					got = TreeFunctionsOblivious(c, mem.NewSpace(), n, edges, i, 9, diffParams(be.srt()))
				})
				if !sameInts(got.Parent, want.Parent) || !slices.Equal(got.Depth, want.Depth) ||
					!slices.Equal(got.Preorder, want.Preorder) || !slices.Equal(got.Postorder, want.Postorder) ||
					!slices.Equal(got.SubtreeSize, want.SubtreeSize) {
					t.Fatalf("tree %d/%s/%s: %+v, want %+v", i, be.name, ex.name, got, want)
				}
			}
			for i, tr := range exprs {
				want := EvalTreeSeq(tr)
				var got uint64
				ex.run(func(c *forkjoin.Ctx) {
					got = EvalTreeOblivious(c, mem.NewSpace(), tr, 9, diffParams(be.srt()))
				})
				if got != want {
					t.Fatalf("expression tree %d/%s/%s: %d, want %d", i, be.name, ex.name, got, want)
				}
			}
		}
	}
}

// TestCCMinHookRandomGraphs widens the differential beyond the fixed
// families: random graphs over a sweep of densities, run on the
// suite-selected context (serial by default; a 4-worker pool under the
// test-parallel matrix leg).
func TestCCMinHookRandomGraphs(t *testing.T) {
	c := graphTestCtx()
	for trial := 0; trial < 12; trial++ {
		n := 2 + trial*5
		m := 1 + trial*trial
		edges := randomGraph(uint64(300+trial), n, m)
		want := ConnectedComponentsSeq(n, edges)
		got, _ := ConnectedComponentsMinHook(c, mem.NewSpace(), n, edges, 0, testParams())
		if !sameInts(got, want) {
			t.Fatalf("trial %d (n=%d m=%d): labels %v, want %v", trial, n, m, got, want)
		}
	}
}
