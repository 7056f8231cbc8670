package oblivmc

// Public-surface tests for the graph workload over edge tables:
// Components/MSF/PageRank against plain references across both sort
// backends and serial/parallel modes, the edge-table round trip and its
// typed errors, the GraphExplain accounting pinned against the sorts a
// run actually executes (via the bitonic network-call counter), and
// metered-run fingerprints as a function of public shape only.

import (
	"errors"
	"strings"
	"testing"

	"oblivmc/internal/bitonic"
	"oblivmc/internal/graph"
	"oblivmc/internal/prng"
)

func testEdges(seed uint64, n, m int, maxW uint64) []WeightedEdge {
	src := prng.New(seed)
	edges := make([]WeightedEdge, m)
	for i := range edges {
		edges[i] = WeightedEdge{U: src.Intn(n), V: src.Intn(n), W: src.Uint64n(maxW)}
	}
	return edges
}

func mustEdgeTable(t *testing.T, edges []WeightedEdge) Table {
	t.Helper()
	tab, err := NewEdgeTable(edges)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func graphConfigs() []Config {
	var cfgs []Config
	for _, backend := range []SortBackend{SortBitonic, SortShuffle} {
		cfgs = append(cfgs,
			Config{Mode: ModeSerial, SortBackend: backend, Seed: 5, DeterministicShuffle: true},
			Config{Mode: ModeParallel, Workers: 4, SortBackend: backend, Seed: 5, DeterministicShuffle: true},
		)
	}
	return cfgs
}

func TestComponentsMatchesReference(t *testing.T) {
	edges := testEdges(21, 40, 55, 100)
	tab := mustEdgeTable(t, edges)
	pairs := make([][2]int, len(edges))
	n := 0
	for i, e := range edges {
		pairs[i] = [2]int{e.U, e.V}
		if e.U >= n {
			n = e.U + 1
		}
		if e.V >= n {
			n = e.V + 1
		}
	}
	want := graph.ConnectedComponentsSeq(n, pairs)
	var ref []Row
	for ci, cfg := range graphConfigs() {
		out, _, err := Components(cfg, tab, 0)
		if err != nil {
			t.Fatal(err)
		}
		rows := out.Rows()
		if len(rows) != n {
			t.Fatalf("cfg %d: %d rows, want %d", ci, len(rows), n)
		}
		for v, r := range rows {
			if r.Key != uint64(v) || r.Val != uint64(want[v]) {
				t.Fatalf("cfg %d: row %d = %+v, want {%d %d}", ci, v, r, v, want[v])
			}
		}
		if ref == nil {
			ref = rows
		} else {
			for v := range ref {
				if rows[v] != ref[v] {
					t.Fatalf("cfg %d: row %d diverged across configs", ci, v)
				}
			}
		}
	}
	// Fixed public round count: enough rounds for this graph converges to
	// the same labeling with a shape-only access pattern.
	fixed, _, err := Components(Config{}, tab, 8)
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range fixed.Rows() {
		if r.Val != uint64(want[v]) {
			t.Fatalf("fixed rounds: label[%d] = %d, want %d", v, r.Val, want[v])
		}
	}
}

func TestMSFMatchesKruskal(t *testing.T) {
	edges := testEdges(22, 24, 40, 16) // tiny weight range: tie-breaks load-bearing
	tab := mustEdgeTable(t, edges)
	ge := make([]graph.WEdge, len(edges))
	n := 0
	for i, e := range edges {
		ge[i] = graph.WEdge{U: e.U, V: e.V, W: e.W}
		if e.U >= n {
			n = e.U + 1
		}
		if e.V >= n {
			n = e.V + 1
		}
	}
	chosen := graph.MinimumSpanningForestSeq(n, ge)
	want := make([]WeightedEdge, len(chosen))
	for i, e := range chosen {
		want[i] = edges[e]
	}
	for ci, cfg := range graphConfigs() {
		out, _, err := MSF(cfg, tab)
		if err != nil {
			t.Fatal(err)
		}
		got, err := out.Edges()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("cfg %d: %d forest edges, want %d", ci, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cfg %d: forest edge %d = %+v, want %+v", ci, i, got[i], want[i])
			}
		}
	}
}

// pageRankRef replays PageRank's exact integer fixed-point recurrence
// sequentially.
func pageRankRef(n int, edges []WeightedEdge, iters int) []uint64 {
	deg := make([]uint64, n)
	for _, e := range edges {
		deg[e.U]++
	}
	ranks := make([]uint64, n)
	for v := range ranks {
		ranks[v] = PageRankScale
	}
	base := PageRankScale * 15 / 100
	for it := 0; it < iters; it++ {
		next := make([]uint64, n)
		for v := range next {
			next[v] = base
		}
		for _, e := range edges {
			if deg[e.U] > 0 {
				next[e.V] += ranks[e.U] * 85 / 100 / deg[e.U]
			}
		}
		ranks = next
	}
	return ranks
}

func TestPageRankMatchesIntegerReference(t *testing.T) {
	edges := testEdges(23, 20, 40, 100)
	tab := mustEdgeTable(t, edges)
	n := 0
	for _, e := range edges {
		if e.U >= n {
			n = e.U + 1
		}
		if e.V >= n {
			n = e.V + 1
		}
	}
	const iters = 3
	want := pageRankRef(n, edges, iters)
	for ci, cfg := range graphConfigs() {
		out, _, err := PageRank(cfg, tab, iters)
		if err != nil {
			t.Fatal(err)
		}
		rows := out.Rows()
		if len(rows) != n {
			t.Fatalf("cfg %d: %d rows, want %d", ci, len(rows), n)
		}
		for v, r := range rows {
			if r.Val != want[v] {
				t.Fatalf("cfg %d: rank[%d] = %d, want %d", ci, v, r.Val, want[v])
			}
		}
	}
}

// FuzzPageRank runs PageRank on a fuzzer-shaped graph against pageRankRef:
// up to 32 vertices, a quarter of them isolated (no edge names them, though
// a higher vertex fixes n), up to 64 edges among the rest, of which about a
// quarter are self-loops and a quarter repeat an earlier edge, so sinks,
// parallel edges and self-loops all occur. The iteration count is 1–4, on
// either sort backend.
func FuzzPageRank(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(10), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(31), uint8(63), uint8(3), uint8(1))
	f.Add(uint64(3), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(4), uint8(1), uint8(5), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, n, m, iters, backend uint8) {
		nv, mv := int(n%32)+1, int(m%64)+1
		src := prng.New(seed)
		used := []int{nv - 1}
		for v := 0; v < nv-1; v++ {
			if src.Intn(4) != 0 {
				used = append(used, v)
			}
		}
		edges := make([]WeightedEdge, 0, mv)
		for len(edges) < mv {
			e := WeightedEdge{U: used[src.Intn(len(used))], V: used[src.Intn(len(used))]}
			switch src.Intn(4) {
			case 0:
				e.V = e.U
			case 1:
				if len(edges) > 0 {
					e = edges[src.Intn(len(edges))]
				}
			}
			edges = append(edges, e)
		}
		edges[0].V = nv - 1 // so n is nv
		k := int(iters%4) + 1
		cfg := Config{SortBackend: SortBitonic}
		if backend%2 == 1 {
			cfg = Config{SortBackend: SortShuffle, Seed: seed, DeterministicShuffle: true}
		}
		out, _, err := PageRank(cfg, mustEdgeTable(t, edges), k)
		if err != nil {
			t.Fatal(err)
		}
		want := pageRankRef(nv, edges, k)
		rows := out.Rows()
		if len(rows) != nv {
			t.Fatalf("%d rows, want %d", len(rows), nv)
		}
		for v, r := range rows {
			if r.Key != uint64(v) || r.Val != want[v] {
				t.Fatalf("pagerank(n=%d, m=%d, iters=%d, seed=%d): row %d = %+v, want rank %d",
					nv, mv, k, seed, v, r, want[v])
			}
		}
	})
}

func TestEdgeTableRoundTripAndErrors(t *testing.T) {
	edges := []WeightedEdge{{U: 0, V: 3, W: 7}, {U: 2, V: 2, W: 1}, {U: 5, V: 1, W: 0}}
	tab := mustEdgeTable(t, edges)
	got, err := tab.Edges()
	if err != nil {
		t.Fatal(err)
	}
	for i := range edges {
		if got[i] != edges[i] {
			t.Fatalf("edge %d = %+v, want %+v", i, got[i], edges[i])
		}
	}
	if _, err := NewEdgeTable([]WeightedEdge{{U: -1, V: 0}}); err == nil {
		t.Fatal("negative endpoint accepted")
	}
	narrow, err := NewTable([]Row{{Key: 1, Val: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := narrow.Edges(); !errors.Is(err, ErrBadWidth) {
		t.Fatalf("Edges on width-1 table: %v, want ErrBadWidth", err)
	}
	if _, _, err := Components(Config{}, tab, -1); err == nil {
		t.Fatal("negative rounds accepted")
	}
	if _, _, err := PageRank(Config{}, tab, 0); err == nil {
		t.Fatal("zero PageRank iterations accepted")
	}
	// A self-loop-only graph has an empty forest, still an edge table.
	forest, _, err := MSF(Config{}, mustEdgeTable(t, []WeightedEdge{{U: 1, V: 1, W: 3}}))
	if err != nil {
		t.Fatal(err)
	}
	if fe, err := forest.Edges(); forest.Width() != 2 || forest.Len() != 0 || err != nil || len(fe) != 0 {
		t.Fatalf("empty forest: width %d, %d rows, edges %v (err %v); want an empty width-2 edge table",
			forest.Width(), forest.Len(), fe, err)
	}
}

// TestGraphSortsPinnedToExecutedSorts: the plan layer's sort and replay
// accounting for fixed-round components and PageRank must equal the number of sorts and
// un-sorts the run actually executes, counted at the bitonic network (one
// call per sort pass on the bitonic backend, a recorded sort included; one
// per un-sort).
func TestGraphSortsPinnedToExecutedSorts(t *testing.T) {
	edges := testEdges(31, 24, 32, 50)
	tab := mustEdgeTable(t, edges)
	el, err := tab.Edges()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range el {
		if e.U >= n {
			n = e.U + 1
		}
		if e.V >= n {
			n = e.V + 1
		}
	}
	const rounds = 3
	pl := GraphOpComponents.plan(n, len(el), rounds)
	if pl.TotalSorts() != 1+3*rounds || pl.TotalReplays() != 3*rounds {
		t.Fatalf("plan %s: %d sorts, %d replays; want %d and %d", pl, pl.TotalSorts(), pl.TotalReplays(), 1+3*rounds, 3*rounds)
	}
	before, replays := bitonic.NetworkCalls(), bitonic.ReplayCalls()
	if _, _, err := Components(Config{SortBackend: SortBitonic}, tab, rounds); err != nil {
		t.Fatal(err)
	}
	if got := int(bitonic.NetworkCalls() - before); got != pl.TotalSorts() {
		t.Fatalf("executed %d bitonic sorts, plan predicts %d", got, pl.TotalSorts())
	}
	if got := int(bitonic.ReplayCalls() - replays); got != pl.TotalReplays() {
		t.Fatalf("executed %d un-sorts, plan predicts %d", got, pl.TotalReplays())
	}
	if GraphOpComponents.plan(n, len(el), 0).TotalSorts() != -1 {
		t.Fatal("convergence mode must report -1 (unbounded) total sorts")
	}

	// MSF reveals its iteration count k: the run must execute BaseSorts +
	// k·SortsPerRound sorts and k·ReplaysPerRound un-sorts, plus the two
	// endpoint replays of the converged check, for one k within the bound.
	mp := GraphOpMSF.plan(n, len(el), 0)
	before, replays = bitonic.NetworkCalls(), bitonic.ReplayCalls()
	if _, _, err := MSF(Config{SortBackend: SortBitonic}, tab); err != nil {
		t.Fatal(err)
	}
	sorts, unsorts := int(bitonic.NetworkCalls()-before), int(bitonic.ReplayCalls()-replays)
	k := (sorts - mp.BaseSorts) / mp.SortsPerRound
	if k < 1 || k > mp.Rounds || sorts != mp.BaseSorts+k*mp.SortsPerRound || unsorts != k*mp.ReplaysPerRound+2 {
		t.Fatalf("MSF executed %d sorts and %d un-sorts; plan %s predicts %d + k·%d and k·%d + 2 for one k in [1, %d]",
			sorts, unsorts, mp, mp.BaseSorts, mp.SortsPerRound, mp.ReplaysPerRound, mp.Rounds)
	}

	// PageRank sorts only in its setup, 0 sorts per iteration; its
	// iterations replay the source gather and the in-edge sums' un-sort,
	// plus the out-degree sums' un-sort once, outside the loop.
	pp := GraphOpPageRank.plan(n, len(el), rounds)
	if pp.SortsPerRound != 0 || pp.TotalSorts() != 3 || pp.TotalReplays() != 2*rounds {
		t.Fatalf("plan %s: %d sorts/round, %d sorts, %d replays; want 0, 3 and %d", pp, pp.SortsPerRound, pp.TotalSorts(), pp.TotalReplays(), 2*rounds)
	}
	before, replays = bitonic.NetworkCalls(), bitonic.ReplayCalls()
	if _, _, err := PageRank(Config{SortBackend: SortBitonic}, tab, rounds); err != nil {
		t.Fatal(err)
	}
	if got := int(bitonic.NetworkCalls() - before); got != pp.TotalSorts() {
		t.Fatalf("PageRank executed %d bitonic sorts, plan predicts %d", got, pp.TotalSorts())
	}
	if got := int(bitonic.ReplayCalls() - replays); got != pp.TotalReplays()+1 {
		t.Fatalf("PageRank executed %d un-sorts, plan predicts %d + 1", got, pp.TotalReplays())
	}
}

func TestGraphExplainStrings(t *testing.T) {
	cases := []struct {
		op     GraphOp
		rounds int
		want   []string
	}{
		{GraphOpComponents, 4, []string{"cc-minhook", "[1 + 3 sorts/round × 4 rounds = 13 sorts, 12 replays]"}},
		{GraphOpComponents, 0, []string{"cc-minhook", "[1 + 3 sorts/round, 3 replays/round, rounds revealed]"}},
		{GraphOpMSF, 0, []string{"msf", "[2 + 6 sorts/round, 6 replays/round × ≤", "revealed"}},
		// 3 setup sorts (two edge groupings, the source gather's request
		// sort); per iteration the gather's and the in-edge sums' replays.
		{GraphOpPageRank, 5, []string{"pagerank", "[3 + 0 sorts/round × 5 rounds = 3 sorts, 10 replays]"}},
	}
	for _, tc := range cases {
		s := GraphExplain(tc.op, 1<<10, 1<<12, tc.rounds)
		for _, sub := range tc.want {
			if !strings.Contains(s, sub) {
				t.Fatalf("GraphExplain(%v, rounds=%d) = %q: missing %q", tc.op, tc.rounds, s, sub)
			}
		}
	}
}

// TestGraphFingerprintsShapeOnly: at the public layer, two metered runs
// over different edge CONTENTS of the same public shape (n, m, rounds)
// report identical trace fingerprints — for the fixed-round components
// kernel and for PageRank.
func TestGraphFingerprintsShapeOnly(t *testing.T) {
	const n, m = 24, 36
	mk := func(seed uint64) Table {
		// Force both endpoints' ranges so every draw shares n.
		edges := testEdges(seed, n, m-1, 60)
		edges = append(edges, WeightedEdge{U: n - 1, V: 0, W: 1})
		return mustEdgeTable(t, edges)
	}
	cfg := Config{Mode: ModeMetered, Trace: true, SortBackend: SortBitonic}
	ccFP := func(tab Table) interface{} {
		_, rep, err := Components(cfg, tab, 3)
		if err != nil {
			t.Fatal(err)
		}
		return rep.TraceFingerprint
	}
	if a, b := ccFP(mk(101)), ccFP(mk(202)); a != b {
		t.Fatalf("components fingerprints differ across contents of one shape: %v vs %v", a, b)
	}
	prFP := func(tab Table) interface{} {
		_, rep, err := PageRank(cfg, tab, 2)
		if err != nil {
			t.Fatal(err)
		}
		return rep.TraceFingerprint
	}
	if a, b := prFP(mk(303)), prFP(mk(404)); a != b {
		t.Fatalf("pagerank fingerprints differ across contents of one shape: %v vs %v", a, b)
	}
}
