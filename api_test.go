package oblivmc

import (
	"errors"
	"sort"
	"testing"

	"oblivmc/internal/graph"
	"oblivmc/internal/pram"
	"oblivmc/internal/prng"
)

func distinctKeys(seed uint64, n int) []uint64 {
	src := prng.New(seed)
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

func TestSortAllModes(t *testing.T) {
	keys := distinctKeys(1, 500)
	want := append([]uint64(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for _, mode := range []Mode{ModeSerial, ModeParallel, ModeMetered} {
		got, rep, err := Sort(Config{Mode: mode, Seed: 7}, keys)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("mode %d: got[%d] = %d, want %d", mode, i, got[i], want[i])
			}
		}
		if (mode == ModeMetered) != (rep != nil) {
			t.Fatalf("mode %d: unexpected report %v", mode, rep)
		}
	}
}

func TestSortReportMetrics(t *testing.T) {
	keys := distinctKeys(2, 256)
	_, rep, err := Sort(Config{Mode: ModeMetered, CacheM: 1 << 10, CacheB: 16, Trace: true, Seed: 3}, keys)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Work <= 0 || rep.Span <= 0 || rep.MemOps <= 0 || rep.Forks <= 0 {
		t.Fatalf("empty metrics: %+v", rep)
	}
	if rep.CacheMisses <= 0 || rep.CacheAccesses < rep.CacheMisses {
		t.Fatalf("cache metrics: %+v", rep)
	}
	if rep.TraceFingerprint.Count == 0 {
		t.Fatal("trace fingerprint missing")
	}
	if rep.Span >= rep.Work {
		t.Fatalf("span %d should be far below work %d", rep.Span, rep.Work)
	}
}

func TestSortObliviousAcrossInputs(t *testing.T) {
	// Same length + seed, different keys → identical shuffle-phase trace is
	// covered in internal tests; here check the public metered costs agree.
	a, ra, _ := Sort(Config{Mode: ModeMetered, Seed: 5}, distinctKeys(3, 300))
	b, rb, _ := Sort(Config{Mode: ModeMetered, Seed: 5}, distinctKeys(4, 300))
	_ = a
	_ = b
	if ra.MemOps == 0 || rb.MemOps == 0 {
		t.Fatal("missing metrics")
	}
}

func TestSortRejectsBadKeys(t *testing.T) {
	if _, _, err := Sort(Config{}, nil); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, _, err := Sort(Config{}, []uint64{1 << 63}); err == nil {
		t.Fatal("oversized key accepted")
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	keys := distinctKeys(5, 200)
	got, _, err := Shuffle(Config{Mode: ModeSerial, Seed: 9}, keys)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, k := range got {
		seen[k] = true
	}
	for _, k := range keys {
		if !seen[k] {
			t.Fatalf("key %d lost in shuffle", k)
		}
	}
	// Different seeds give different arrangements (overwhelmingly).
	got2, _, _ := Shuffle(Config{Mode: ModeSerial, Seed: 10}, keys)
	same := 0
	for i := range got {
		if got[i] == got2[i] {
			same++
		}
	}
	if same == len(got) {
		t.Fatal("two seeds produced identical shuffles")
	}
}

func TestListRankAPI(t *testing.T) {
	src := prng.New(11)
	const n = 60
	order := src.Perm(n)
	succ := make([]int, n)
	for k := 0; k < n-1; k++ {
		succ[order[k]] = order[k+1]
	}
	succ[order[n-1]] = order[n-1]
	got, _, err := ListRank(Config{Mode: ModeSerial, Seed: 2}, succ, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := graph.ListRankSeq(succ, nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if _, _, err := ListRank(Config{}, []int{5}, nil); err == nil {
		t.Fatal("out-of-range successor accepted")
	}
}

func TestTreeFunctionsAPI(t *testing.T) {
	src := prng.New(13)
	const n = 16
	edges := make([][2]int, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{src.Intn(v), v})
	}
	tf, _, err := TreeFunctions(Config{Mode: ModeSerial, Seed: 3}, n, edges, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := graph.TreeFunctionsSeq(n, edges, 0)
	for v := 0; v < n; v++ {
		if tf.Parent[v] != ref.Parent[v] || tf.Depth[v] != ref.Depth[v] {
			t.Fatalf("vertex %d mismatch", v)
		}
	}
	if _, _, err := TreeFunctions(Config{}, 3, [][2]int{{0, 1}}, 0); err == nil {
		t.Fatal("wrong edge count accepted")
	}
}

func TestEvaluateExpressionTreeAPI(t *testing.T) {
	// (3 + 4) * 2
	tr := ExpressionTree{
		N: 5, Root: 4,
		Left:    []int{-1, -1, -1, 0, 3},
		Right:   []int{-1, -1, -1, 1, 2},
		Op:      []uint8{0, 0, 0, OpAdd, OpMul},
		LeafVal: []uint64{3, 4, 2, 0, 0},
	}
	got, _, err := EvaluateExpressionTree(Config{Mode: ModeSerial, Seed: 4}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got != 14 {
		t.Fatalf("got %d, want 14", got)
	}
	bad := tr
	bad.Right = []int{-1, -1, -1, -1, 2} // node 3 has left but no right
	if _, _, err := EvaluateExpressionTree(Config{}, bad); err == nil {
		t.Fatal("non-full tree accepted")
	}
}

func TestConnectedComponentsAPI(t *testing.T) {
	edges := [][2]int{{0, 1}, {1, 2}, {3, 4}}
	labels, _, err := ConnectedComponents(Config{Mode: ModeSerial}, 6, edges)
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("0-1-2 should share a component")
	}
	if labels[3] != labels[4] {
		t.Fatal("3-4 should share a component")
	}
	if labels[0] == labels[3] || labels[0] == labels[5] || labels[3] == labels[5] {
		t.Fatal("distinct components merged")
	}
}

func TestMinimumSpanningForestAPI(t *testing.T) {
	edges := []WeightedEdge{
		{U: 0, V: 1, W: 10}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 5}, {U: 3, V: 4, W: 2},
	}
	chosen, _, err := MinimumSpanningForest(Config{Mode: ModeSerial}, 5, edges)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{1: true, 2: true, 3: true}
	if len(chosen) != 3 {
		t.Fatalf("chose %v", chosen)
	}
	for _, e := range chosen {
		if !want[e] {
			t.Fatalf("chose %v, want edges 1,2,3", chosen)
		}
	}
	if _, _, err := MinimumSpanningForest(Config{}, 2, []WeightedEdge{{U: 0, V: 1, W: 1 << 20}}); err == nil {
		t.Fatal("oversized weight accepted")
	}
}

// TestMSFShapeBounds pins the packed-key bounds both MSF entry points share:
// 2^21 vertices is rejected up front with a plain error, never reached as an
// internal panic.
func TestMSFShapeBounds(t *testing.T) {
	cfg := Config{Mode: ModeSerial}
	if _, _, err := MinimumSpanningForest(cfg, 1<<21, []WeightedEdge{{U: 0, V: 1, W: 1}}); err == nil || errors.Is(err, ErrInternal) {
		t.Fatalf("MinimumSpanningForest with 2^21 vertices: %v, want a shape error", err)
	}
	tab := mustEdgeTable(t, []WeightedEdge{{U: 0, V: 1<<21 - 1, W: 1}})
	if _, _, err := MSF(cfg, tab); err == nil || errors.Is(err, ErrInternal) {
		t.Fatalf("MSF with 2^21 vertices: %v, want a shape error", err)
	}
}

func TestSimulatePRAMAPI(t *testing.T) {
	const n = 16
	src := prng.New(17)
	order := src.Perm(n)
	succ := make([]int, n)
	for k := 0; k < n-1; k++ {
		succ[order[k]] = order[k+1]
	}
	succ[order[n-1]] = order[n-1]
	m := &pram.PointerJumpMachine{N: n, Succ: succ}
	final, rep, err := SimulatePRAM(Config{Mode: ModeMetered, Seed: 1}, m, m.InitialMemory())
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Work == 0 {
		t.Fatal("missing metrics")
	}
	ranks := m.Ranks(final)
	want := graph.ListRankSeq(succ, nil)
	for i := range want {
		if uint64(ranks[i]) != want[i] {
			t.Fatalf("rank[%d] = %d, want %d", i, ranks[i], want[i])
		}
	}
}

func TestWithORAMAPI(t *testing.T) {
	rep, err := WithORAM(Config{Mode: ModeMetered, Seed: 6}, 9, 4, func(access func([]ORAMRequest) []uint64) {
		access([]ORAMRequest{{Addr: 3, Write: true, Val: 99}})
		got := access([]ORAMRequest{{Addr: 3}, {Addr: 4}})
		if got[0] != 99 || got[1] != 0 {
			t.Errorf("read back %v", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Work == 0 {
		t.Fatal("missing metrics")
	}
}

func TestParallelModeMatchesSerial(t *testing.T) {
	keys := distinctKeys(21, 800)
	a, _, _ := Sort(Config{Mode: ModeSerial, Seed: 5}, keys)
	b, _, _ := Sort(Config{Mode: ModeParallel, Workers: 4, Seed: 5}, keys)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}
