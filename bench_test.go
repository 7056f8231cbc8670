package oblivmc

// Benchmark harness: one testing.B benchmark per table/figure of the paper
// (wall-clock, parallel executor). The shape analysis with exact
// work/span/cache metrics lives in cmd/oblivbench, which lists the
// experiments; these benchmarks measure real multicore runtime of the same
// code paths.

import (
	"fmt"
	"testing"

	"oblivmc/internal/benchdata"
	"oblivmc/internal/bitonic"
	"oblivmc/internal/core"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/graph"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/oram"
	"oblivmc/internal/plan"
	"oblivmc/internal/pram"
	"oblivmc/internal/prng"
	"oblivmc/internal/relops"
	"oblivmc/internal/spms"
)

// benchPool shares one work-stealing pool across iterations.
var benchPool = forkjoin.NewPool(0)

func benchKeys(n int) []uint64 {
	src := prng.New(42)
	seen := map[uint64]bool{}
	out := make([]uint64, 0, n)
	for len(out) < n {
		k := src.Uint64() >> 4
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

func benchElems(sp *mem.Space, keys []uint64) *mem.Array[obliv.Elem] {
	a := mem.Alloc[obliv.Elem](sp, len(keys))
	for i, k := range keys {
		a.Data()[i] = obliv.Elem{Key: k, Kind: obliv.Real}
	}
	return a
}

// --- Table 1: Sort --------------------------------------------------------

func BenchmarkTable1Sort_ObliviousPractical(b *testing.B) {
	keys := benchKeys(1 << 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPool.Run(func(c *forkjoin.Ctx) {
			sp := mem.NewSpace()
			core.SortPractical(c, sp, benchElems(sp, keys), 1, core.Params{})
		})
	}
}

func BenchmarkTable1Sort_ObliviousTheory(b *testing.B) {
	keys := benchKeys(1 << 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPool.Run(func(c *forkjoin.Ctx) {
			sp := mem.NewSpace()
			core.SortWith(c, sp, benchElems(sp, keys), 1, core.Params{}, spms.InsecureSampleSort(2))
		})
	}
}

func BenchmarkTable1Sort_InsecureSampleSort(b *testing.B) {
	keys := benchKeys(1 << 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPool.Run(func(c *forkjoin.Ctx) {
			sp := mem.NewSpace()
			spms.SampleSort(c, sp, benchElems(sp, keys), 2)
		})
	}
}

func BenchmarkTable1Sort_InsecureMergeSort(b *testing.B) {
	keys := benchKeys(1 << 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPool.Run(func(c *forkjoin.Ctx) {
			sp := mem.NewSpace()
			spms.MergeSort(c, sp, benchElems(sp, keys))
		})
	}
}

// --- Table 1: list ranking -------------------------------------------------

func benchList(n int) []int {
	src := prng.New(7)
	order := src.Perm(n)
	succ := make([]int, n)
	for k := 0; k < n-1; k++ {
		succ[order[k]] = order[k+1]
	}
	succ[order[n-1]] = order[n-1]
	return succ
}

func BenchmarkTable1ListRank_Oblivious(b *testing.B) {
	succ := benchList(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPool.Run(func(c *forkjoin.Ctx) {
			sp := mem.NewSpace()
			graph.ListRankOblivious(c, sp, succ, nil, 3, core.Params{})
		})
	}
}

func BenchmarkTable1ListRank_InsecureDirect(b *testing.B) {
	succ := benchList(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPool.Run(func(c *forkjoin.Ctx) {
			sp := mem.NewSpace()
			graph.ListRankDirect(c, sp, succ, nil)
		})
	}
}

// --- Table 1: Euler-tour tree computations ---------------------------------

func benchTree(n int) [][2]int {
	src := prng.New(9)
	edges := make([][2]int, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{src.Intn(v), v})
	}
	return edges
}

func BenchmarkTable1Euler_Oblivious(b *testing.B) {
	const n = 256
	edges := benchTree(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPool.Run(func(c *forkjoin.Ctx) {
			sp := mem.NewSpace()
			graph.TreeFunctionsOblivious(c, sp, n, edges, 0, 5, core.Params{})
		})
	}
}

func BenchmarkTable1Euler_InsecureDirect(b *testing.B) {
	const n = 256
	edges := benchTree(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPool.Run(func(c *forkjoin.Ctx) {
			sp := mem.NewSpace()
			graph.TreeFunctionsDirect(c, sp, n, edges, 0, 5)
		})
	}
}

// --- Table 1: tree contraction ----------------------------------------------

func benchExpr(leaves int) graph.ExprTree {
	src := prng.New(11)
	n := 2*leaves - 1
	t := graph.ExprTree{
		N: n, Left: make([]int, n), Right: make([]int, n),
		Op: make([]uint8, n), LeafVal: make([]uint64, n),
	}
	for i := range t.Left {
		t.Left[i], t.Right[i] = -1, -1
	}
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
		t.Left[next], t.Right[next] = a, roots[j]
		t.Op[next] = uint8(src.Intn(2))
		roots[j] = next
		next++
	}
	t.Root = roots[0]
	return t
}

func BenchmarkTable1TreeContraction_Oblivious(b *testing.B) {
	tr := benchExpr(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPool.Run(func(c *forkjoin.Ctx) {
			sp := mem.NewSpace()
			graph.EvalTreeOblivious(c, sp, tr, 7, core.Params{})
		})
	}
}

func BenchmarkTable1TreeContraction_InsecureDescent(b *testing.B) {
	tr := benchExpr(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPool.Run(func(c *forkjoin.Ctx) {
			sp := mem.NewSpace()
			graph.EvalTreeDirect(c, sp, tr)
		})
	}
}

// --- Table 1: CC and MSF -----------------------------------------------------

func benchGraph(n, m int) [][2]int {
	src := prng.New(13)
	edges := make([][2]int, 0, m)
	for len(edges) < m {
		u, v := src.Intn(n), src.Intn(n)
		if u != v {
			edges = append(edges, [2]int{u, v})
		}
	}
	return edges
}

func BenchmarkTable1CC_Oblivious(b *testing.B) {
	const n = 64
	edges := benchGraph(n, 2*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPool.Run(func(c *forkjoin.Ctx) {
			sp := mem.NewSpace()
			graph.ConnectedComponentsOblivious(c, sp, n, edges)
		})
	}
}

func BenchmarkTable1CC_InsecureDirect(b *testing.B) {
	const n = 64
	edges := benchGraph(n, 2*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPool.Run(func(c *forkjoin.Ctx) {
			sp := mem.NewSpace()
			graph.ConnectedComponentsDirect(c, sp, n, edges)
		})
	}
}

func benchWeighted(n, m int) []graph.WEdge {
	src := prng.New(17)
	edges := make([]graph.WEdge, 0, m)
	for len(edges) < m {
		u, v := src.Intn(n), src.Intn(n)
		if u != v {
			edges = append(edges, graph.WEdge{U: u, V: v, W: src.Uint64n(1 << 16)})
		}
	}
	return edges
}

func BenchmarkTable1MSF_Oblivious(b *testing.B) {
	const n = 64
	edges := benchWeighted(n, 2*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPool.Run(func(c *forkjoin.Ctx) {
			sp := mem.NewSpace()
			graph.MinimumSpanningForestOblivious(c, sp, n, edges)
		})
	}
}

func BenchmarkTable1MSF_InsecureDirect(b *testing.B) {
	const n = 64
	edges := benchWeighted(n, 2*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPool.Run(func(c *forkjoin.Ctx) {
			sp := mem.NewSpace()
			graph.MinimumSpanningForestDirect(c, sp, n, edges)
		})
	}
}

// --- Table 2: building blocks ------------------------------------------------

func BenchmarkTable2Aggregate(b *testing.B) {
	const n = 1 << 12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPool.Run(func(c *forkjoin.Ctx) {
			sp := mem.NewSpace()
			a := mem.Alloc[obliv.Elem](sp, n)
			for j := 0; j < n; j++ {
				a.Data()[j] = obliv.Elem{Key: uint64(j / 8), Val: uint64(j), Kind: obliv.Real}
			}
			obliv.AggregateSuffix(c, sp, a,
				func(e obliv.Elem) uint64 { return e.Key },
				func(e obliv.Elem) uint64 { return e.Val },
				func(x, y uint64) uint64 { return x + y },
				func(e obliv.Elem, i int, agg uint64) obliv.Elem { e.Aux = agg; return e })
		})
	}
}

func BenchmarkTable2Propagate(b *testing.B) {
	const n = 1 << 12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPool.Run(func(c *forkjoin.Ctx) {
			sp := mem.NewSpace()
			a := mem.Alloc[obliv.Elem](sp, n)
			for j := 0; j < n; j++ {
				a.Data()[j] = obliv.Elem{Key: uint64(j / 8), Val: uint64(j), Kind: obliv.Real}
			}
			obliv.PropagateFirst(c, sp, a,
				func(e obliv.Elem) uint64 { return e.Key },
				func(e obliv.Elem, i int) (uint64, bool) { return e.Val, true },
				func(e obliv.Elem, i int, v uint64, ok bool) obliv.Elem { e.Aux = v; return e })
		})
	}
}

func BenchmarkTable2SendReceive(b *testing.B) {
	const n = 1 << 10
	srt := bitonic.CacheAgnostic{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPool.Run(func(c *forkjoin.Ctx) {
			sp := mem.NewSpace()
			sources := mem.Alloc[obliv.Elem](sp, n)
			dests := mem.Alloc[obliv.Elem](sp, n)
			for j := 0; j < n; j++ {
				sources.Data()[j] = obliv.Elem{Key: uint64(j), Val: uint64(j * 3), Kind: obliv.Real}
				dests.Data()[j] = obliv.Elem{Key: uint64((j * 7) % n), Kind: obliv.Real}
			}
			obliv.SendReceive(c, sp, sources, dests, srt)
		})
	}
}

func BenchmarkTable2PRAMStep_Oblivious(b *testing.B) {
	const n = 128
	mach := &pram.AddConstMachine{N: n, K: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPool.Run(func(c *forkjoin.Ctx) {
			sp := mem.NewSpace()
			pram.RunOblivious(c, sp, mach, make([]uint64, n))
		})
	}
}

func BenchmarkTable2PRAMStep_Direct(b *testing.B) {
	const n = 128
	mach := &pram.AddConstMachine{N: n, K: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPool.Run(func(c *forkjoin.Ctx) {
			sp := mem.NewSpace()
			pram.RunDirect(c, sp, mach, make([]uint64, n))
		})
	}
}

// --- Figure 1 / Theorem E.1: bitonic variants ---------------------------------

// benchBitonic times one 2^12-key sort of the Theorem E.1 ablation's
// networks, over one key plane like the ablation.
func benchBitonic(b *testing.B, sort func(c *forkjoin.Ctx, sp *mem.Space, ks *obliv.KeySchedule, n int)) {
	const n = 1 << 12
	keys := benchKeys(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPool.Run(func(c *forkjoin.Ctx) {
			sp := mem.NewSpace()
			sort(c, sp, obliv.NewKeySchedule(mem.FromSlice(sp, keys), n, 1), n)
		})
	}
}

func BenchmarkFig1Bitonic_CacheAgnostic(b *testing.B) {
	benchBitonic(b, func(c *forkjoin.Ctx, sp *mem.Space, ks *obliv.KeySchedule, n int) {
		bitonic.SortCAPlanes(c, ks, obliv.AllocKeySchedule(sp, n, 1), 1, nil, 0, n, true, 0)
	})
}

func BenchmarkFig1Bitonic_Naive(b *testing.B) {
	benchBitonic(b, func(c *forkjoin.Ctx, _ *mem.Space, ks *obliv.KeySchedule, n int) {
		bitonic.SortIterative(c, ks, 0, n)
	})
}

func BenchmarkFig1Bitonic_OddEven(b *testing.B) {
	benchBitonic(b, func(c *forkjoin.Ctx, _ *mem.Space, ks *obliv.KeySchedule, n int) {
		bitonic.SortOddEven(c, ks, 0, n)
	})
}

// --- Lemma 3.1: ORBA variants --------------------------------------------------

func benchORBA(b *testing.B, meta bool, p core.Params) {
	const n = 1 << 11
	keys := benchKeys(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPool.Run(func(c *forkjoin.Ctx) {
			sp := mem.NewSpace()
			in := benchElems(sp, keys)
			tape := prng.NewTape(7, core.TapeLen(n, p))
			if meta {
				core.MetaORBA(c, sp, in, tape, p)
			} else {
				core.RecORBA(c, sp, in, tape, p)
			}
		})
	}
}

func BenchmarkORBA_Recursive(b *testing.B)       { benchORBA(b, false, core.Params{}) }
func BenchmarkORBA_RecursiveGamma2(b *testing.B) { benchORBA(b, false, core.Params{Gamma: 2}) }
func BenchmarkORBA_Meta(b *testing.B)            { benchORBA(b, true, core.Params{}) }

// --- Relational operators (internal/relops) ------------------------------------
//
// Perf trajectory for the oblivious analytics layer: elements/sec at
// n ∈ {2^12, 2^16, 2^20}. Run with -benchtime=1x for a quick spot check —
// the 2^20 points sort a million-element array through the full bitonic
// pipeline and take seconds per iteration.

var relopsSizes = []int{1 << 12, 1 << 16, 1 << 20}

// benchRecords is the canonical workload (internal/benchdata), so numbers
// from these benchmarks stay comparable across commits.
func benchRecords(n int) []relops.Record { return benchdata.Records(n) }

func benchLoad(b *testing.B, sp *mem.Space, recs []relops.Record) relops.Rel {
	return benchLoadW(b, sp, recs, 1)
}

func benchLoadW(b *testing.B, sp *mem.Space, recs []relops.Record, w int) relops.Rel {
	r, err := relops.Load(sp, recs, w)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// benchOneStage runs the one-stage plan of shape s over a — the engine path
// a stand-alone Filter / GroupBy takes — on the bitonic backend.
func benchOneStage(c *forkjoin.Ctx, sp *mem.Space, a relops.Rel, s plan.Shape, pred func(relops.Record) bool) {
	s.KeyCols = a.W
	relops.Execute(c, sp, relops.NewArena(), a, plan.Build(s), pred, bitonic.CacheAgnostic{})
}

func benchRelop(b *testing.B, n int, op func(c *forkjoin.Ctx, sp *mem.Space, recs []relops.Record)) {
	recs := benchRecords(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPool.Run(func(c *forkjoin.Ctx) {
			op(c, mem.NewSpace(), recs)
		})
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "elems/s")
}

func BenchmarkCompact(b *testing.B) {
	for _, n := range relopsSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRelop(b, n, func(c *forkjoin.Ctx, sp *mem.Space, recs []relops.Record) {
				a := benchLoad(b, sp, recs)
				benchOneStage(c, sp, a, plan.Shape{Filter: true}, func(r relops.Record) bool { return r.Val%2 == 0 })
			})
		})
	}
}

func BenchmarkGroupBy(b *testing.B) {
	for _, n := range relopsSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRelop(b, n, func(c *forkjoin.Ctx, sp *mem.Space, recs []relops.Record) {
				a := benchLoad(b, sp, recs)
				benchOneStage(c, sp, a, plan.Shape{GroupBy: true, Agg: uint8(relops.AggSum)}, nil)
			})
		})
	}
}

// BenchmarkGroupByWide is the width-2 GROUP BY (a, b) point: the same
// pipeline against a three-word (col, col, position) key schedule with the
// one-pass (sum, count) moment aggregate.
func BenchmarkGroupByWide(b *testing.B) {
	for _, n := range relopsSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			wrecs := benchdata.WideRecords(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchPool.Run(func(c *forkjoin.Ctx) {
					sp := mem.NewSpace()
					a := benchLoadW(b, sp, wrecs, 2)
					benchOneStage(c, sp, a, plan.Shape{GroupBy: true, Agg: uint8(relops.AggAvg)}, nil)
				})
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "elems/s")
		})
	}
}

// BenchmarkJoin times the public primary-key Join (one send-receive) on
// the bitonic backend.
func BenchmarkJoin(b *testing.B) {
	for _, be := range []struct {
		name string
		cfg  Config
	}{{"SortBitonic", Config{SortBackend: SortBitonic}}, {"SortAuto", Config{}}} {
		for _, n := range relopsSizes {
			b.Run(fmt.Sprintf("%s/n=%d", be.name, n), func(b *testing.B) {
				// Left: primary relation with distinct keys; right: n records
				// over the same key range.
				left := Table{recs: benchdata.LeftRecords(n), width: 1}
				right := Table{recs: benchRecords(n), width: 1}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := Join(be.cfg, left, right); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "elems/s")
			})
		}
	}
}

// sendRecvSizes are the sizes of the Lookup and GroupTotals benchmarks.
var sendRecvSizes = []int{1 << 12, 1 << 16}

// BenchmarkLookup routes n queries over the canonical records' keys
// (hits and misses) against a table of n distinct keys, on the default
// backend.
func BenchmarkLookup(b *testing.B) {
	for _, n := range sendRecvSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			keys, vals, queries := make([]uint64, n), make([]uint64, n), make([]uint64, n)
			for i, r := range benchRecords(n) {
				keys[i], vals[i], queries[i] = uint64(2*i), r.Val, r.Key
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := Lookup(Config{}, keys, vals, queries); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "elems/s")
		})
	}
}

// BenchmarkGroupTotals totals the canonical records' values by key, on the
// default backend.
func BenchmarkGroupTotals(b *testing.B) {
	for _, n := range sendRecvSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			groups, values := make([]uint64, n), make([]uint64, n)
			for i, r := range benchRecords(n) {
				groups[i], values[i] = r.Key, r.Val
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := GroupTotals(Config{}, groups, values); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "elems/s")
		})
	}
}

// BenchmarkJoinAll is the many-to-many expansion join point: left keys
// repeat (multiplicity 2), the match count equals n exactly, and the public
// capacity is tight (maxOut = n) — the operator's three sorts plus the
// expansion's bitonic merge run over the
// NextPow2(NextPow2(nl+n)+NextPow2(n)) work relation at full occupancy.
// The sorter is the size-adaptive shuffle-then-sort backend (the library
// default at these sizes); the seed is pinned so iterations measure
// identical traces.
func BenchmarkJoinAll(b *testing.B) {
	var seed uint64 = 1
	for _, n := range relopsSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			lrecs, rrecs, maxOut := benchdata.JoinAllRecords(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchPool.Run(func(c *forkjoin.Ctx) {
					sp := mem.NewSpace()
					l := benchLoad(b, sp, lrecs)
					r := benchLoad(b, sp, rrecs)
					srt := &core.ShuffleSorter{FixedSeed: &seed}
					if _, _, err := relops.JoinAll(c, sp, relops.NewArena(), l, r, maxOut, srt); err != nil {
						b.Fatal(err)
					}
				})
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "elems/s")
		})
	}
}

// --- End-to-end query pipeline: planner (fused) vs one operator at a time -----
//
// The multi-stage Filter→Distinct→GroupBy→TopK pipeline the sort-fusion
// planner targets: the 6 sorting-network passes of the four public
// one-stage calls collapse to 2 fused ones (see internal/plan), with the
// remaining sorts on the cached-key comparator fast path.

func benchQuery(n int) (Table, Query) {
	recs := benchRecords(n)
	rows := make([]Row, len(recs))
	for i, r := range recs {
		rows[i] = Row{Key: r.Key, Val: r.Val}
	}
	t, err := NewTable(rows)
	if err != nil {
		panic(err)
	}
	return t, Query{
		Filter:   func(r Row) bool { return benchdata.FilterPred(r.Val) },
		Distinct: true,
		GroupBy:  AggSum,
		TopK:     benchdata.TopK,
	}
}

// benchRunQuery times q over the benchmark table: fused — one RunQuery — or
// staged, the chain of q's public one-stage calls through Tables.
func benchRunQuery(b *testing.B, n int, staged bool) {
	t, q := benchQuery(n)
	chain := []stage{{run: func(cfg Config, t Table) (Table, *Report, error) { return RunQuery(cfg, t, q) }}}
	if staged {
		chain = stagesOf(q)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := t
		for _, st := range chain {
			out, _, err := st.run(Config{}, cur)
			if err != nil {
				b.Fatal(err)
			}
			cur = out
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "elems/s")
}

func BenchmarkQueryFused(b *testing.B) {
	for _, n := range relopsSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchRunQuery(b, n, false) })
	}
}

func BenchmarkQueryStaged(b *testing.B) {
	for _, n := range relopsSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchRunQuery(b, n, true) })
	}
}

// --- Graph workloads over edge tables -------------------------------------------
//
// The edge-table graph points: the canonical benchmark graph (m edges, m/16
// vertices), min-hook connected components on both sort backends and the
// Borůvka MSF on the default backend. "n" counts edges. MSF stops at 2^16
// edges — its revealed iteration count makes 2^20 a multi-hour point —
// while CC runs the full 2^16/2^20 spread.

var graphSizes = []int{1 << 16, 1 << 20}

func benchEdgeTable(b *testing.B, m int) Table {
	_, edges := benchdata.GraphEdges(m)
	t, err := NewEdgeTable(edges)
	if err != nil {
		b.Fatal(err)
	}
	return t
}

func benchGraphCC(b *testing.B, backend SortBackend) {
	for _, m := range graphSizes {
		if testing.Short() && m > 1<<16 {
			continue
		}
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			t := benchEdgeTable(b, m)
			cfg := Config{Seed: 1, SortBackend: backend, DeterministicShuffle: true}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := Components(cfg, t, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
		})
	}
}

func BenchmarkGraphCC_Bitonic(b *testing.B) { benchGraphCC(b, SortBitonic) }
func BenchmarkGraphCC_Shuffle(b *testing.B) { benchGraphCC(b, SortShuffle) }

func BenchmarkGraphMSF(b *testing.B) {
	m := 1 << 16
	b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
		t := benchEdgeTable(b, m)
		cfg := Config{Seed: 1, DeterministicShuffle: true}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := MSF(cfg, t); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
	})
}

// BenchmarkGraphPageRank is 5 PageRank iterations over 2^10 vertices and
// 2^13 uniform random edges (the graph_cc_det shape) on both sort backends.
func BenchmarkGraphPageRank(b *testing.B) {
	const n, m = 1 << 10, 1 << 13
	edges := testEdges(44, n, m, 1)
	edges[0].V = n - 1 // fixes the vertex count at n
	t, err := NewEdgeTable(edges)
	if err != nil {
		b.Fatal(err)
	}
	for _, be := range []struct {
		name    string
		backend SortBackend
	}{{"bitonic", SortBitonic}, {"shuffle", SortShuffle}} {
		b.Run(be.name, func(b *testing.B) {
			cfg := Config{Seed: 1, SortBackend: be.backend, DeterministicShuffle: true}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := PageRank(cfg, t, 5); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
		})
	}
}

// --- Theorem 4.2: OPRAM batches -------------------------------------------------

func BenchmarkOPRAMBatch(b *testing.B) {
	benchPool.Run(func(c *forkjoin.Ctx) {
		sp := mem.NewSpace()
		o := oram.New(c, sp, 12, 4, oram.Options{Seed: 3})
		reqs := []oram.Req{{Addr: 1}, {Addr: 5, Write: true, Val: 9}, {Addr: 2}, {Addr: 3}}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o.Access(c, sp, reqs)
		}
	})
}
