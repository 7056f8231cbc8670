package relops

import (
	"errors"
	"math/bits"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"oblivmc/internal/bitonic"
	"oblivmc/internal/core"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/obliv/oblivtest"
	"oblivmc/internal/plan"
	"oblivmc/internal/prng"
)

// testCtx returns the executor the suite's operator calls run under:
// serial by default, or a package-wide 4-worker stealing pool when
// OBLIVMC_TEST_MODE=parallel (CI's ModeParallel matrix leg, `make
// test-parallel`), so every correctness and property check in this package
// also exercises true concurrent execution. The trace-fingerprint tests
// are unaffected: fingerprints are defined by the metered executor, which
// is sequential by construction and never goes through this helper.
func testCtx() *forkjoin.Ctx {
	if os.Getenv("OBLIVMC_TEST_MODE") != "parallel" {
		return forkjoin.Serial()
	}
	suitePoolOnce.Do(func() { suitePool = forkjoin.NewPool(4) })
	return suitePool.OwnerCtx()
}

var (
	suitePool     *forkjoin.Pool
	suitePoolOnce sync.Once
)

// mustLoad is width-1 Load for known-in-range test data; the error path has
// its own tests (TestLoadRejectsOutOfRange). It panics rather than
// t.Fatal-ing so it is safe inside closures running on pool workers.
func mustLoad(t testing.TB, sp *mem.Space, recs []Record) Rel {
	t.Helper()
	return mustLoadW(t, sp, recs, 1)
}

// mustLoadW is Load at an explicit key width.
func mustLoadW(t testing.TB, sp *mem.Space, recs []Record, w int) Rel {
	t.Helper()
	r, err := Load(sp, recs, w)
	if err != nil {
		panic(err)
	}
	return r
}

// testSorter picks the sorter the correctness/property suite runs under.
// The default leg uses a cheap exact sorter for tiny inputs and the real
// cache-agnostic bitonic sorter otherwise, so the suite exercises both;
// with OBLIVMC_SORT_BACKEND=shuffle (CI's second matrix leg, `make
// test-shuffle`) every sort instead runs the shuffle-then-sort composition
// forced down to the smallest sizes. The relational operators' *outputs*
// are backend-independent — every relational order is made strict by the
// position tie-break — so the same reference checks apply to both legs.
// (The trace-fingerprint tests pin their backends explicitly and do not go
// through this helper: the shuffle backend's per-seed trace determinism is
// weaker, and its fingerprint guarantees are asserted by its own tests.)
func testSorter(n int) obliv.ScheduledSorter {
	if os.Getenv("OBLIVMC_SORT_BACKEND") == "shuffle" {
		seed := uint64(0x7e57)
		return &core.ShuffleSorter{FixedSeed: &seed, Crossover: 2}
	}
	if n <= 64 {
		return obliv.SelectionNetwork{}
	}
	return bitonic.CacheAgnostic{}
}

// oneStage runs the one-stage plan of shape s over r — how production
// executes a stand-alone Filter, Distinct, GroupBy or TopK: plan.Build on
// the shape, then Execute. The run* helpers below name the four shapes.
func oneStage(c *forkjoin.Ctx, sp *mem.Space, ar *Arena, r Rel, s plan.Shape, pred func(Record) bool, srt obliv.ScheduledSorter) int {
	s.KeyCols = r.W
	return Execute(c, sp, ar, r, plan.Build(s), pred, srt)
}

func runCompact(c *forkjoin.Ctx, sp *mem.Space, ar *Arena, r Rel, pred func(Record) bool, srt obliv.ScheduledSorter) int {
	return oneStage(c, sp, ar, r, plan.Shape{Filter: true}, pred, srt)
}

func runDistinct(c *forkjoin.Ctx, sp *mem.Space, ar *Arena, r Rel, srt obliv.ScheduledSorter) int {
	return oneStage(c, sp, ar, r, plan.Shape{Distinct: true}, nil, srt)
}

func runGroupBy(c *forkjoin.Ctx, sp *mem.Space, ar *Arena, r Rel, agg AggKind, srt obliv.ScheduledSorter) int {
	return oneStage(c, sp, ar, r, plan.Shape{GroupBy: true, Agg: uint8(agg)}, nil, srt)
}

// runTopK needs k >= 1: a shape reads TopK == 0 as "no top-k stage" (the
// public TopK wrapper answers k == 0 itself, before any run).
func runTopK(c *forkjoin.Ctx, sp *mem.Space, ar *Arena, r Rel, k int, srt obliv.ScheduledSorter) int {
	return oneStage(c, sp, ar, r, plan.Shape{TopK: k}, nil, srt)
}

func randRecords(src *prng.Source, n int, keySpread, valSpread uint64) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Key: src.Uint64n(keySpread), Val: src.Uint64n(valSpread)}
	}
	return recs
}

// randWideRecords draws width-2 records whose columns exercise the full
// uint64 range (far beyond the old 2^40 packed-key bound) with heavy
// column-0 duplication so the second column decides many comparisons.
func randWideRecords(src *prng.Source, n int, spread1, spread2, valSpread uint64) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Key:  src.Uint64n(spread1) * 0x9e3779b97f4a7c15,
			Key2: src.Uint64n(spread2) * 0x517cc1b727220a95,
			Val:  src.Uint64n(valSpread),
		}
	}
	return recs
}

func checkRecords(t testing.TB, got, want []Record, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d records, want %d\ngot  %v\nwant %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d = %v, want %v\ngot  %v\nwant %v", label, i, got[i], want[i], got, want)
		}
	}
}

var testSizes = []int{1, 2, 3, 7, 8, 17, 33, 100, 129}

func TestCompactRandom(t *testing.T) {
	src := prng.New(101)
	pred := func(r Record) bool { return r.Val%3 == 0 }
	for _, n := range testSizes {
		recs := randRecords(src, n, 25, 1000)
		var want []Record
		for _, r := range recs {
			if pred(r) {
				want = append(want, r)
			}
		}
		sp := mem.NewSpace()
		a := mustLoad(t, sp, recs)
		count := runCompact(testCtx(), sp, NewArena(), a, pred, testSorter(a.Len()))
		if count != len(want) {
			t.Fatalf("n=%d: Compact count = %d, want %d", n, count, len(want))
		}
		got := Unload(a)
		checkRecords(t, got, want, "Compact")
		if cap(got) != len(got) {
			t.Fatalf("n=%d: Unload allocated %d entries for %d survivors — the result must be sized to the result, not the padded input", n, cap(got), len(got))
		}
	}
}

func TestCompactNoneSurvive(t *testing.T) {
	sp := mem.NewSpace()
	a := mustLoad(t, sp, randRecords(prng.New(5), 16, 10, 10))
	count := runCompact(testCtx(), sp, NewArena(), a, func(Record) bool { return false }, obliv.SelectionNetwork{})
	if count != 0 || len(Unload(a)) != 0 {
		t.Fatalf("expected empty result, got count=%d records=%v", count, Unload(a))
	}
}

func TestDistinctRandom(t *testing.T) {
	src := prng.New(202)
	for _, n := range testSizes {
		recs := randRecords(src, n, 12, 1000) // heavy duplication
		seen := map[uint64]bool{}
		var want []Record
		for _, r := range recs {
			if !seen[r.Key] {
				seen[r.Key] = true
				want = append(want, r)
			}
		}
		sp := mem.NewSpace()
		a := mustLoad(t, sp, recs)
		count := runDistinct(testCtx(), sp, NewArena(), a, testSorter(a.Len()))
		if count != len(want) {
			t.Fatalf("n=%d: Distinct count = %d, want %d", n, count, len(want))
		}
		checkRecords(t, Unload(a), want, "Distinct")
	}
}

// TestDistinctWideKeys drives width-2 deduplication: rows sharing column 0
// but differing in column 1 are distinct tuples, and column values far
// above the old 2^40 limit survive intact.
func TestDistinctWideKeys(t *testing.T) {
	src := prng.New(212)
	for _, n := range testSizes {
		recs := randWideRecords(src, n, 5, 4, 1000)
		seen := map[[2]uint64]bool{}
		var want []Record
		for _, r := range recs {
			k := [2]uint64{r.Key, r.Key2}
			if !seen[k] {
				seen[k] = true
				want = append(want, r)
			}
		}
		sp := mem.NewSpace()
		a := mustLoadW(t, sp, recs, 2)
		count := runDistinct(testCtx(), sp, NewArena(), a, testSorter(a.Len()))
		if count != len(want) {
			t.Fatalf("n=%d: wide Distinct count = %d, want %d", n, count, len(want))
		}
		checkRecords(t, Unload(a), want, "Distinct wide")
	}
}

func refGroupBy(recs []Record, agg AggKind, wide bool) []Record {
	type stats struct{ sum, sq, cnt, minv, maxv uint64 }
	aggs := map[[2]uint64]*stats{}
	var order [][2]uint64
	keyOf := func(r Record) [2]uint64 {
		if wide {
			return [2]uint64{r.Key, r.Key2}
		}
		return [2]uint64{r.Key, 0}
	}
	for _, r := range recs {
		k := keyOf(r)
		s, ok := aggs[k]
		if !ok {
			s = &stats{minv: r.Val, maxv: r.Val}
			aggs[k] = s
			order = append(order, k)
		} else {
			if r.Val < s.minv {
				s.minv = r.Val
			}
			if r.Val > s.maxv {
				s.maxv = r.Val
			}
		}
		s.sum += r.Val
		s.sq += r.Val * r.Val
		s.cnt++
	}
	out := make([]Record, len(order))
	for i, k := range order {
		s := aggs[k]
		var v uint64
		switch agg {
		case AggSum:
			v = s.sum
		case AggCount:
			v = s.cnt
		case AggMin:
			v = s.minv
		case AggMax:
			v = s.maxv
		case AggAvg:
			v = s.sum / s.cnt
		case AggVar:
			m := s.sum / s.cnt
			ex2 := s.sq / s.cnt
			if ex2 >= m*m {
				v = ex2 - m*m
			}
		}
		rec := Record{Key: k[0], Val: v}
		if wide {
			rec.Key2 = k[1]
		}
		out[i] = rec
	}
	return out
}

var allAggs = []AggKind{AggSum, AggCount, AggMin, AggMax, AggAvg, AggVar}

func TestGroupByRandom(t *testing.T) {
	src := prng.New(303)
	for _, agg := range allAggs {
		for _, n := range testSizes {
			recs := randRecords(src, n, 10, 500)
			want := refGroupBy(recs, agg, false)
			sp := mem.NewSpace()
			a := mustLoad(t, sp, recs)
			count := runGroupBy(testCtx(), sp, NewArena(), a, agg, testSorter(a.Len()))
			if count != len(want) {
				t.Fatalf("agg=%d n=%d: GroupBy count = %d, want %d", agg, n, count, len(want))
			}
			checkRecords(t, Unload(a), want, "GroupBy")
		}
	}
}

// TestGroupByWideKeys is the composite GROUP BY (a, b): every aggregate
// over two full-range key columns, against the plain-Go reference.
func TestGroupByWideKeys(t *testing.T) {
	src := prng.New(313)
	for _, agg := range allAggs {
		for _, n := range testSizes {
			recs := randWideRecords(src, n, 4, 3, 500)
			want := refGroupBy(recs, agg, true)
			sp := mem.NewSpace()
			a := mustLoadW(t, sp, recs, 2)
			count := runGroupBy(testCtx(), sp, NewArena(), a, agg, testSorter(a.Len()))
			if count != len(want) {
				t.Fatalf("agg=%d n=%d: wide GroupBy count = %d, want %d", agg, n, count, len(want))
			}
			checkRecords(t, Unload(a), want, "GroupBy wide")
		}
	}
}

// TestGroupByMaxLegalKeys pins the lifted key range: key columns at the
// maximum legal value (KeyLimit-1 = 2^64-2, adjacent to the filler
// sentinel) must sort, group, and aggregate correctly — the Kind-aware
// grouping keeps even maximal keys out of the filler tail.
func TestGroupByMaxLegalKeys(t *testing.T) {
	maxKey := uint64(KeyLimit - 1)
	recs := []Record{
		{Key: maxKey, Key2: maxKey, Val: 10},
		{Key: 0, Key2: 1, Val: 1},
		{Key: maxKey, Key2: maxKey, Val: 30},
		{Key: maxKey, Key2: 0, Val: 7},
	}
	sp := mem.NewSpace()
	a := mustLoadW(t, sp, recs, 2)
	count := runGroupBy(testCtx(), sp, NewArena(), a, AggAvg, obliv.SelectionNetwork{})
	want := []Record{
		{Key: maxKey, Key2: maxKey, Val: 20},
		{Key: 0, Key2: 1, Val: 1},
		{Key: maxKey, Key2: 0, Val: 7},
	}
	if count != len(want) {
		t.Fatalf("count = %d, want %d", count, len(want))
	}
	checkRecords(t, Unload(a), want, "GroupBy max keys")
}

// topKSizes crosses the tournament's boundaries: testSizes stays below
// passGrain, so the two larger sizes add runs whose layers split over
// several leaves (and, under make test-parallel, several workers).
var topKSizes = append(append([]int(nil), testSizes...), 3000, 5000)

// topKCuts is the k sweep for a relation of n records: below, at and past a
// power of two, half, all and more than all of n.
func topKCuts(n int) []int {
	if n <= 129 {
		return []int{1, (n + 1) / 2, n, n + 5}
	}
	return []int{1, 10, 1000, 1025, n / 2, n, n + 5}
}

// topKRef is the plain-Go top-k: value descending, equal values by input
// position ascending, the first k.
func topKRef(recs []Record, k int) []Record {
	want := append([]Record(nil), recs...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].Val > want[j].Val })
	return want[:min(k, len(want))]
}

func TestTopKRandom(t *testing.T) {
	src := prng.New(505)
	for _, n := range topKSizes {
		for _, k := range topKCuts(n) {
			recs := make([]Record, n)
			seen := map[uint64]bool{}
			for i := range recs {
				v := src.Uint64n(1 << 30)
				for seen[v] {
					v = src.Uint64n(1 << 30)
				}
				seen[v] = true
				recs[i] = Record{Key: uint64(i), Val: v} // distinct values: exact reference
			}
			want := topKRef(recs, k)

			sp := mem.NewSpace()
			a := mustLoad(t, sp, recs)
			count := runTopK(testCtx(), sp, NewArena(), a, k, testSorter(a.Len()))
			if count != len(want) {
				t.Fatalf("n=%d k=%d: TopK count = %d, want %d", n, k, count, len(want))
			}
			checkRecords(t, Unload(a), want, "TopK")
		}
	}
}

// TestTopK01Principle applies the 0–1 principle to the executed tournament:
// every 0/1 value vector of n = 2, 4, 8, 16 records through topK, on the
// serial, 2-worker pool and metered executors. The first k slots must hold
// the k largest values (the ones first), every later slot a filler. Equal
// values are full ties (one TiePos for all records), so each comparator
// acts on the 0/1 values alone. k runs over every k <= n up to n = 8; at
// n = 16 it runs over the powers of two, one k per tournament: topK(k) is
// the tournament of NextPow2(k) followed by a cut at k, so its first k
// slots are those of topK(NextPow2(k)).
func TestTopK01Principle(t *testing.T) {
	oblivtest.SameOnEveryExecutor(t, "topK", func(c *forkjoin.Ctx, sp *mem.Space) []uint64 {
		ar := NewArena()
		var out []uint64 // every kept prefix, one value bit per slot
		for n := 2; n <= 16; n <<= 1 {
			a := mem.Alloc[obliv.Elem](sp, n)
			for mask := 0; mask < 1<<n; mask++ {
				ones := bits.OnesCount(uint(mask))
				for k := 1; k <= n; k++ {
					if n == 16 && !obliv.IsPow2(k) {
						continue
					}
					for i := range n {
						a.Data()[i] = obliv.Elem{Val: uint64(mask >> i & 1), Kind: obliv.Real}
					}
					topK(c, sp, ar, a, k)
					var w uint64
					for i, e := range a.Data() {
						want := obliv.Elem{} // a filler past the cut
						if i < k {
							want = obliv.Elem{Kind: obliv.Real}
							if i < ones {
								want.Val = 1
							}
						}
						if e != want {
							t.Errorf("n=%d k=%d: mask %b: slot %d = %+v, want %+v", n, k, mask, i, e, want) // Errorf: may run on a pool worker
							break
						}
						w |= e.Val << i
					}
					out = append(out, w)
				}
			}
		}
		return out
	})
}

// TestTopKTiesAndZeros drives the Val==0 / filler key-collision corner and
// tie-heavy values: the survivors must be exactly the reference's, equal
// values kept in input order.
func TestTopKTiesAndZeros(t *testing.T) {
	src := prng.New(606)
	check := func(n, k int, spread uint64) {
		t.Helper()
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = Record{Key: uint64(i), Val: src.Uint64n(spread)} // many ties, many zeros
		}
		want := topKRef(recs, k)

		sp := mem.NewSpace()
		a := mustLoad(t, sp, recs)
		count := runTopK(testCtx(), sp, NewArena(), a, k, obliv.SelectionNetwork{})
		if count != len(want) {
			t.Fatalf("n=%d k=%d: count=%d, want %d", n, k, count, len(want))
		}
		checkRecords(t, Unload(a), want, "TopK ties")
	}
	for trial := 0; trial < 20; trial++ {
		n := 5 + src.Intn(20)
		check(n, 1+src.Intn(n+1), 3)
	}
	for _, n := range []int{3000, 5000} {
		for _, k := range topKCuts(n) {
			check(n, k, 4)
		}
	}
}

// TestLoadRejectsOutOfRange pins the boundary contract: key columns at the
// filler sentinel, relations beyond MaxRows, and widths outside
// [1, MaxKeyCols] must be rejected with the typed errors. MaxRows is now
// 2^40 — far too large to materialize — so the row bound is exercised
// through the shape check Load itself applies.
func TestLoadRejectsOutOfRange(t *testing.T) {
	sp := mem.NewSpace()
	if _, err := Load(sp, []Record{{Key: KeyLimit, Val: 1}}, 1); !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("key = KeyLimit: err = %v, want ErrKeyTooLarge", err)
	}
	if _, err := Load(sp, []Record{{Key: KeyLimit - 1, Val: 1}}, 1); err != nil {
		t.Fatalf("key = KeyLimit-1 (max legal key) rejected: %v", err)
	}
	// A width-1 load ignores column 1, so a sentinel there is legal...
	if _, err := Load(sp, []Record{{Key: 1, Key2: KeyLimit, Val: 1}}, 1); err != nil {
		t.Fatalf("width-1 load rejected ignored column: %v", err)
	}
	// ...but a width-2 load validates it.
	if _, err := Load(sp, []Record{{Key: 1, Key2: KeyLimit, Val: 1}}, 2); !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("wide key = KeyLimit: err = %v, want ErrKeyTooLarge", err)
	}
	for _, w := range []int{0, MaxKeyCols + 1} {
		if _, err := Load(sp, []Record{{Key: 1}}, w); !errors.Is(err, ErrBadWidth) {
			t.Fatalf("width %d: err = %v, want ErrBadWidth", w, err)
		}
	}
	if err := CheckShape(MaxRows+1, 1); !errors.Is(err, ErrTooManyRows) {
		t.Fatalf("MaxRows+1 records: err = %v, want ErrTooManyRows", err)
	}
	if err := CheckShape(MaxRows, MaxKeyCols); err != nil {
		t.Fatalf("maximal legal shape rejected: %v", err)
	}
}

// TestErrorMessagesReflectConstants guards the parameterized limit strings:
// the messages must be derived from the active constants, not baked-in
// copies of historical bounds.
func TestErrorMessagesReflectConstants(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want string
	}{
		{ErrKeyTooLarge, "18446744073709551614"}, // KeyLimit-1 = 2^64-2
		{ErrTooManyRows, "2^40"},                 // log2(MaxRows)
		{ErrBadWidth, "[1, 2]"},                  // MaxKeyCols
	} {
		if !strings.Contains(tc.err.Error(), tc.want) {
			t.Errorf("error %q does not mention active constant %q", tc.err, tc.want)
		}
	}
	for _, stale := range []string{"2^40-1", "2^20"} {
		for _, err := range []error{ErrKeyTooLarge, ErrTooManyRows, ErrBadWidth} {
			if strings.Contains(err.Error(), stale) {
				t.Errorf("error %q still bakes in the stale bound %q", err, stale)
			}
		}
	}
}

// TestArenaReuseMatchesFreshScratch runs the same operator pipeline with
// one shared arena and with a fresh arena per operator and asserts
// identical results — scratch reuse must be invisible to the operator
// semantics.
func TestArenaReuseMatchesFreshScratch(t *testing.T) {
	src := prng.New(909)
	recs := randRecords(src, 100, 12, 1000)
	run := func(arena func() *Arena) ([]Record, []Record) {
		sp := mem.NewSpace()
		srt := bitonic.CacheAgnostic{}
		a := mustLoad(t, sp, recs)
		runDistinct(testCtx(), sp, arena(), a, srt)
		b := mustLoad(t, sp, recs)
		runGroupBy(testCtx(), sp, arena(), b, AggSum, srt)
		return Unload(a), Unload(b)
	}
	shared := NewArena()
	d1, g1 := run(func() *Arena { return shared })
	d2, g2 := run(NewArena)
	checkRecords(t, d1, d2, "Distinct arena vs fresh")
	checkRecords(t, g1, g2, "GroupBy arena vs fresh")
}

// TestArenaMixedWidths holds one arena across passes of different schedule
// widths (a wide GroupBy between two narrow ones): the shared key backing
// must be re-carved per width without corrupting either.
func TestArenaMixedWidths(t *testing.T) {
	src := prng.New(919)
	narrow := randRecords(src, 90, 9, 500)
	wide := randWideRecords(src, 90, 4, 3, 500)
	ar := NewArena()
	sp := mem.NewSpace()
	srt := bitonic.CacheAgnostic{}

	a := mustLoad(t, sp, narrow)
	runGroupBy(testCtx(), sp, ar, a, AggSum, srt)
	b := mustLoadW(t, sp, wide, 2)
	runGroupBy(testCtx(), sp, ar, b, AggAvg, srt)
	c := mustLoad(t, sp, narrow)
	runGroupBy(testCtx(), sp, ar, c, AggSum, srt)

	checkRecords(t, Unload(a), refGroupBy(narrow, AggSum, false), "narrow before wide")
	checkRecords(t, Unload(b), refGroupBy(wide, AggAvg, true), "wide between narrows")
	checkRecords(t, Unload(c), refGroupBy(narrow, AggSum, false), "narrow after wide")
}

// TestArenaRebindsAcrossSpaces holds one arena across two independent
// address spaces: cached arrays from the first space must not be handed
// out in the second (their addresses would alias the second space's own
// allocations), so the arena must transparently reallocate.
func TestArenaRebindsAcrossSpaces(t *testing.T) {
	ar := NewArena()
	s1 := mem.NewSpace()
	a1 := ar.ElemScratch(s1, 64)
	s2 := mem.NewSpace()
	a2 := ar.ElemScratch(s2, 64)
	if &a1.Data()[0] == &a2.Data()[0] {
		t.Fatal("arena handed out a cached array across address spaces")
	}
	a3 := ar.ElemScratch(s2, 64)
	if &a2.Data()[0] != &a3.Data()[0] {
		t.Fatal("arena failed to reuse its cache within one space")
	}

	// End to end: one arena across two spaces/runs yields the same rows.
	src := prng.New(1001)
	recs := randRecords(src, 80, 9, 500)
	arr := NewArena()
	var got [2][]Record
	for round := 0; round < 2; round++ {
		sp := mem.NewSpace()
		a := mustLoad(t, sp, recs)
		runGroupBy(testCtx(), sp, arr, a, AggSum, bitonic.CacheAgnostic{})
		got[round] = Unload(a)
	}
	checkRecords(t, got[1], got[0], "arena across spaces")
}

// TestMarkBoundariesParallelRace stresses the boundary scan with many
// forked leaves so the race detector can see any neighbor read racing a
// write (markBoundaries writes marks via a scratch array for this reason).
func TestMarkBoundariesParallelRace(t *testing.T) {
	src := prng.New(808)
	recs := randRecords(src, 1<<13, 64, 1000)
	forkjoin.RunParallel(8, func(c *forkjoin.Ctx) {
		sp := mem.NewSpace()
		srt := bitonic.CacheAgnostic{}
		a := mustLoad(t, sp, recs)
		if got, want := runDistinct(c, sp, NewArena(), a, srt), 64; got != want {
			t.Errorf("Distinct under parallel pool: %d keys, want %d", got, want)
		}
	})
}

// TestOperatorsParallel smoke-tests every operator under the real
// work-stealing pool (the race detector covers the forking passes),
// including a wide group-by.
func TestOperatorsParallel(t *testing.T) {
	src := prng.New(707)
	recs := randRecords(src, 200, 15, 1000)
	wrecs := randWideRecords(src, 200, 5, 4, 1000)
	forkjoin.RunParallel(4, func(c *forkjoin.Ctx) {
		sp := mem.NewSpace()
		srt := bitonic.CacheAgnostic{}

		a := mustLoad(t, sp, recs)
		runCompact(c, sp, NewArena(), a, func(r Record) bool { return r.Val%2 == 0 }, srt)

		b := mustLoad(t, sp, recs)
		runDistinct(c, sp, NewArena(), b, srt)

		g := mustLoad(t, sp, recs)
		runGroupBy(c, sp, NewArena(), g, AggSum, srt)

		gw := mustLoadW(t, sp, wrecs, 2)
		runGroupBy(c, sp, NewArena(), gw, AggVar, srt)

		tk := mustLoad(t, sp, recs)
		runTopK(c, sp, NewArena(), tk, 10, srt)
	})
}
