package oblivmc

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"oblivmc/internal/prng"
	"oblivmc/internal/trace"
)

func mustTable(t *testing.T, rows []Row) Table {
	t.Helper()
	tab, err := NewTable(rows)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(nil); err == nil {
		t.Fatal("empty table should be rejected")
	}
	// The old 2^40 key ceiling is lifted: only the filler sentinel itself
	// is out of range.
	if _, err := NewTable([]Row{{Key: ^uint64(0), Val: 0}}); err == nil {
		t.Fatal("sentinel key should be rejected")
	}
	if _, err := NewTable([]Row{{Key: 1 << 40, Val: ^uint64(0)}}); err != nil {
		t.Fatalf("legal table rejected: %v", err)
	}
	if _, err := NewTable([]Row{{Key: ^uint64(0) - 1, Val: ^uint64(0)}}); err != nil {
		t.Fatalf("maximum legal key rejected: %v", err)
	}
}

// TestTableOwnsItsRows: a Table is an immutable copy — it aliases neither
// the slice it was built from nor the views it hands out, so no write
// through either can change its rows or poison a later query (the filler
// sentinel as a key would fail the engine's own bounds check).
func TestTableOwnsItsRows(t *testing.T) {
	const poison = ^uint64(0)
	cfg := Config{Mode: ModeSerial}

	rows := []Row{{Key: 3, Val: 30}, {Key: 1, Val: 10}, {Key: 3, Val: 31}}
	want := append([]Row(nil), rows...)
	tab := mustTable(t, rows)
	for i := range rows {
		rows[i].Key = poison
	}
	for i, view := 0, tab.Rows(); i < len(view); i++ {
		view[i] = Row{Key: poison, Val: poison}
	}
	if got := tab.Rows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("narrow table changed under its caller: %v, want %v", got, want)
	}
	d, _, err := Distinct(cfg, tab)
	if err != nil {
		t.Fatalf("Distinct after caller-side writes: %v", err)
	}
	if got, want := d.Rows(), []Row{{Key: 3, Val: 30}, {Key: 1, Val: 10}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Distinct after caller-side writes = %v, want %v", got, want)
	}

	wide := []WideRow{{Keys: []uint64{2, 5}, Val: 7}, {Keys: []uint64{0, 1}, Val: 9}, {Keys: []uint64{2, 5}, Val: 8}}
	wtab := mustWideTable(t, wide)
	for i := range wide {
		wide[i].Keys[0], wide[i].Keys[1] = poison, poison
	}
	for _, r := range wtab.WideRows() {
		r.Keys[0], r.Keys[1] = poison, poison
		_ = append(r.Keys, poison) // must not spill into the next row's keys
	}
	edges, err := wtab.Edges()
	if err != nil {
		t.Fatal(err)
	}
	for i := range edges {
		edges[i] = WeightedEdge{U: -1, V: -1, W: poison}
	}
	wwant := []WideRow{{Keys: []uint64{2, 5}, Val: 7}, {Keys: []uint64{0, 1}, Val: 9}, {Keys: []uint64{2, 5}, Val: 8}}
	checkWideRows(t, wtab.WideRows(), wwant, "wide table after caller-side writes")
	wd, _, err := Distinct(cfg, wtab)
	if err != nil {
		t.Fatalf("wide Distinct after caller-side writes: %v", err)
	}
	checkWideRows(t, wd.WideRows(), wwant[:2], "wide Distinct after caller-side writes")
}

func TestFilterTable(t *testing.T) {
	tab := mustTable(t, []Row{{1, 10}, {2, 25}, {3, 30}, {4, 45}, {5, 50}})
	got, _, err := Filter(Config{Mode: ModeSerial}, tab, func(r Row) bool { return r.Val%10 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	want := []Row{{1, 10}, {3, 30}, {5, 50}}
	if len(got.Rows()) != len(want) {
		t.Fatalf("got %v, want %v", got.Rows(), want)
	}
	for i, r := range want {
		if got.Rows()[i] != r {
			t.Fatalf("got %v, want %v", got.Rows(), want)
		}
	}
}

func TestGroupByAndTopKTable(t *testing.T) {
	// Departments and salaries; top-2 departments by total salary.
	tab := mustTable(t, []Row{
		{1, 120}, {2, 95}, {1, 140}, {3, 80}, {2, 105}, {1, 130}, {3, 75},
	})
	grouped, _, err := GroupBy(Config{Mode: ModeSerial}, tab, AggSum)
	if err != nil {
		t.Fatal(err)
	}
	wantTotals := map[uint64]uint64{1: 390, 2: 200, 3: 155}
	if len(grouped.Rows()) != len(wantTotals) {
		t.Fatalf("grouped rows %v", grouped.Rows())
	}
	for _, r := range grouped.Rows() {
		if wantTotals[r.Key] != r.Val {
			t.Fatalf("group %d total %d, want %d", r.Key, r.Val, wantTotals[r.Key])
		}
	}

	top, _, err := TopK(Config{Mode: ModeSerial}, grouped, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Rows()) != 2 || top.Rows()[0] != (Row{1, 390}) || top.Rows()[1] != (Row{2, 200}) {
		t.Fatalf("top-2 = %v", top.Rows())
	}
}

// TestTopKBeyondRowCount asks for more rows than the table holds, up to
// math.MaxInt: TopK must return every row in descending value order, ties
// by input position (k is clamped to the row count before it is rounded to
// a power of two, whose doubling never ends above 2^62).
func TestTopKBeyondRowCount(t *testing.T) {
	rows := []Row{{1, 5}, {2, 9}, {3, 5}, {4, 0}, {5, 12}}
	want := []Row{{5, 12}, {2, 9}, {1, 5}, {3, 5}, {4, 0}}
	for _, k := range []int{len(rows), len(rows) + 1, math.MaxInt} {
		got, _, err := TopK(Config{Mode: ModeSerial}, mustTable(t, rows), k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rows(), want) {
			t.Fatalf("TopK(k=%d) = %v, want %v", k, got.Rows(), want)
		}
	}
}

func TestDistinctTable(t *testing.T) {
	tab := mustTable(t, []Row{{4, 1}, {2, 2}, {4, 3}, {9, 4}, {2, 5}})
	got, _, err := Distinct(Config{Mode: ModeSerial}, tab)
	if err != nil {
		t.Fatal(err)
	}
	want := []Row{{4, 1}, {2, 2}, {9, 4}}
	if len(got.Rows()) != len(want) {
		t.Fatalf("got %v, want %v", got.Rows(), want)
	}
	for i, r := range want {
		if got.Rows()[i] != r {
			t.Fatalf("got %v, want %v", got.Rows(), want)
		}
	}
}

// TestOperatorArgumentEdges pins the argument values a Query reads as "no
// such stage" — nil predicate, AggNone, k == 0 — at the one-operator
// wrappers, which must answer them before any run.
func TestOperatorArgumentEdges(t *testing.T) {
	cfg := Config{Mode: ModeMetered}
	narrow := mustTable(t, []Row{{1, 10}, {2, 25}, {1, 30}})
	wide := mustWideTable(t, []WideRow{{Keys: []uint64{1, 2}, Val: 3}, {Keys: []uint64{1, 2}, Val: 4}})
	for _, tc := range []struct {
		name      string
		run       func() (Table, *Report, error)
		wantErr   string // "" = success with an empty table of wantWidth
		wantWidth int
	}{
		{"Filter nil predicate", func() (Table, *Report, error) { return Filter(cfg, narrow, nil) },
			errNilPredicate.Error(), 0},
		{"FilterRows nil predicate", func() (Table, *Report, error) { return FilterRows(cfg, wide, nil) },
			errNilPredicate.Error(), 0},
		{"GroupByCols AggNone", func() (Table, *Report, error) { return GroupByCols(cfg, narrow, AggNone) },
			"oblivmc: invalid aggregation 0", 0},
		{"TopK 0 narrow", func() (Table, *Report, error) { return TopK(cfg, narrow, 0) }, "", 1},
		{"TopK 0 wide", func() (Table, *Report, error) { return TopK(cfg, wide, 0) }, "", 2},
	} {
		got, rep, err := tc.run()
		if rep != nil {
			t.Errorf("%s: metered report %+v — the answer must precede any run", tc.name, rep)
		}
		if tc.wantErr != "" {
			if err == nil || err.Error() != tc.wantErr || errors.Is(err, ErrInternal) {
				t.Errorf("%s: err = %v, want the plain argument error %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil || got.Len() != 0 || got.Width() != tc.wantWidth {
			t.Errorf("%s: %d rows of width %d, err %v — want an empty width-%d table", tc.name, got.Len(), got.Width(), err, tc.wantWidth)
		}
	}
}

// TestPublicOperatorIsOneStageQuery is the spec of the one-operator
// functions: each is RunQuery of its one-stage Query — same rows, same
// order token out (fresh and token-carrying inputs alike), and, metered,
// the same Report to the digit.
func TestPublicOperatorIsOneStageQuery(t *testing.T) {
	cfg := Config{Mode: ModeMetered, Trace: true, Seed: 1, SortBackend: SortBitonic}
	narrowPred := func(r Row) bool { return r.Val%3 != 0 }
	widePred := func(r WideRow) bool { return r.Val%3 != 0 }
	ops := []struct {
		name   string
		q      Query
		run    func(Table) (Table, *Report, error)
		widths []int
	}{
		{"Filter", Query{Filter: narrowPred},
			func(t Table) (Table, *Report, error) { return Filter(cfg, t, narrowPred) }, []int{1}}, // narrow predicate: width 1 only
		{"FilterRows", Query{FilterWide: widePred},
			func(t Table) (Table, *Report, error) { return FilterRows(cfg, t, widePred) }, []int{1, 2}},
		{"Distinct", Query{Distinct: true},
			func(t Table) (Table, *Report, error) { return Distinct(cfg, t) }, []int{1, 2}},
		{"GroupByCols", Query{GroupBy: AggAvg},
			func(t Table) (Table, *Report, error) { return GroupByCols(cfg, t, AggAvg) }, []int{1, 2}},
		{"TopK", Query{TopK: 7},
			func(t Table) (Table, *Report, error) { return TopK(cfg, t, 7) }, []int{1, 2}},
	}
	// Per width: a fresh load, and the same table materialized in key
	// order — the wrapper must ride the input's token exactly as RunQuery
	// does.
	inputs := map[int][]Table{}
	for w, fresh := range map[int]Table{1: mustTable(t, queryRows(100)), 2: mustWideTable(t, wideQueryRows(100))} {
		keyed, _, err := RunQuery(cfg, fresh, Query{Distinct: true, KeyOrderOut: true})
		if err != nil {
			t.Fatal(err)
		}
		inputs[w] = []Table{fresh, keyed}
	}
	for _, op := range ops {
		for _, w := range op.widths {
			for _, in := range inputs[w] {
				label := fmt.Sprintf("%s width %d input order %v", op.name, w, in.Order())
				got, gotRep, err := op.run(in)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want, wantRep, err := RunQuery(cfg, in, op.q)
				if err != nil {
					t.Fatalf("%s: one-stage RunQuery: %v", label, err)
				}
				if !reflect.DeepEqual(got.WideRows(), want.WideRows()) {
					t.Errorf("%s: rows %v, one-stage query %v", label, got.WideRows(), want.WideRows())
				}
				if got.Order() != want.Order() {
					t.Errorf("%s: order token %v, one-stage query %v", label, got.Order(), want.Order())
				}
				if *gotRep != *wantRep {
					t.Errorf("%s: report %+v, one-stage query %+v", label, *gotRep, *wantRep)
				}
			}
		}
	}
}

func TestJoinTable(t *testing.T) {
	budgets := mustTable(t, []Row{{1, 1000}, {2, 800}, {3, 600}})
	employees := mustTable(t, []Row{{1, 120}, {2, 95}, {7, 50}, {1, 140}})
	got, _, err := Join(Config{Mode: ModeSerial}, budgets, employees)
	if err != nil {
		t.Fatal(err)
	}
	want := []JoinedRow{{1, 1000, 120}, {2, 800, 95}, {1, 1000, 140}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i, r := range want {
		if got[i] != r {
			t.Fatalf("got %v, want %v", got, want)
		}
	}

	dup := mustTable(t, []Row{{1, 1}, {1, 2}})
	if _, _, err := Join(Config{Mode: ModeSerial}, dup, employees); err == nil {
		t.Fatal("duplicate left keys should be rejected")
	}
}

// refAgg is the plain-Go reference of every aggregation kind over a
// group's moment statistics and extrema.
func refAgg(agg Agg, sum, sq, cnt, minv, maxv uint64) uint64 {
	switch agg {
	case AggSum:
		return sum
	case AggCount:
		return cnt
	case AggMin:
		return minv
	case AggMax:
		return maxv
	case AggAvg:
		return sum / cnt
	case AggVar:
		m := sum / cnt
		ex2 := sq / cnt
		if ex2 < m*m {
			return 0
		}
		return ex2 - m*m
	}
	return 0
}

func refQuery(rows []Row, q Query) []Row {
	cur := append([]Row(nil), rows...)
	if q.Filter != nil {
		var kept []Row
		for _, r := range cur {
			if q.Filter(r) {
				kept = append(kept, r)
			}
		}
		cur = kept
	}
	if q.Distinct {
		seen := map[uint64]bool{}
		var kept []Row
		for _, r := range cur {
			if !seen[r.Key] {
				seen[r.Key] = true
				kept = append(kept, r)
			}
		}
		cur = kept
	}
	if q.GroupBy != AggNone {
		type stats struct{ sum, sq, cnt, minv, maxv uint64 }
		aggs := map[uint64]*stats{}
		var order []uint64
		for _, r := range cur {
			s, ok := aggs[r.Key]
			if !ok {
				s = &stats{minv: r.Val, maxv: r.Val}
				aggs[r.Key] = s
				order = append(order, r.Key)
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
		cur = cur[:0]
		for _, k := range order {
			cur = append(cur, Row{Key: k, Val: refAgg(q.GroupBy, aggs[k].sum, aggs[k].sq, aggs[k].cnt, aggs[k].minv, aggs[k].maxv)})
		}
	}
	if q.TopK > 0 {
		// Stable insertion sort descending by value: ties keep input order,
		// as TopK's do.
		sorted := append([]Row(nil), cur...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j].Val > sorted[j-1].Val; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		if q.TopK < len(sorted) {
			sorted = sorted[:q.TopK]
		}
		cur = sorted
	}
	return cur
}

func TestRunQueryPipeline(t *testing.T) {
	src := prng.New(88)
	rows := make([]Row, 120)
	for i := range rows {
		rows[i] = Row{Key: src.Uint64n(9), Val: 10 + uint64(i)} // distinct vals
	}
	tab := mustTable(t, rows)
	q := Query{
		Filter:  func(r Row) bool { return r.Val%2 == 0 },
		GroupBy: AggSum,
		TopK:    3,
	}
	got, _, err := RunQuery(Config{Mode: ModeSerial, Seed: 1}, tab, q)
	if err != nil {
		t.Fatal(err)
	}
	want := refQuery(rows, q)
	if len(got.Rows()) != len(want) {
		t.Fatalf("got %v, want %v", got.Rows(), want)
	}
	for i, r := range want {
		if got.Rows()[i] != r {
			t.Fatalf("row %d: got %v, want %v", i, got.Rows()[i], r)
		}
	}
}

func TestRunQueryParallelMatchesSerial(t *testing.T) {
	src := prng.New(99)
	rows := make([]Row, 200)
	for i := range rows {
		rows[i] = Row{Key: src.Uint64n(20), Val: src.Uint64n(1 << 30)}
	}
	tab := mustTable(t, rows)
	q := Query{Filter: func(r Row) bool { return r.Val%3 != 0 }, GroupBy: AggMax, TopK: 5}
	serial, _, err := RunQuery(Config{Mode: ModeSerial}, tab, q)
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := RunQuery(Config{Workers: 4}, tab, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows()) != len(par.Rows()) {
		t.Fatalf("serial %v != parallel %v", serial.Rows(), par.Rows())
	}
	for i := range serial.Rows() {
		if serial.Rows()[i] != par.Rows()[i] {
			t.Fatalf("serial %v != parallel %v", serial.Rows(), par.Rows())
		}
	}
}

// TestQueryObliviousTrace asserts the full public pipeline's adversary view
// depends only on the table's shape, not its contents.
func TestQueryObliviousTrace(t *testing.T) {
	q := Query{Filter: func(r Row) bool { return r.Val > 500 }, GroupBy: AggSum, TopK: 4}
	traceOf := func(rows []Row) trace.Fingerprint {
		tab := mustTable(t, rows)
		_, rep, err := RunQuery(Config{Mode: ModeMetered, Trace: true, Seed: 3}, tab, q)
		if err != nil {
			t.Fatal(err)
		}
		return rep.TraceFingerprint
	}
	src := prng.New(77)
	n := 90
	a := make([]Row, n)
	b := make([]Row, n)
	for i := 0; i < n; i++ {
		a[i] = Row{Key: 1, Val: 0}
		b[i] = Row{Key: src.Uint64n(30), Val: src.Uint64n(1 << 35)}
	}
	if !traceOf(a).Equal(traceOf(b)) {
		t.Fatal("query trace depends on table contents")
	}
}

// --- Wide-key (multi-column) table tests --------------------------------

func mustWideTable(t *testing.T, rows []WideRow) Table {
	t.Helper()
	tab, err := NewWideTable(rows)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// wideQueryRows draws two-column rows with full-range column values (far
// beyond the old 2^40 key ceiling) and heavy tuple duplication.
func wideQueryRows(n int) []WideRow {
	src := prng.New(2024)
	rows := make([]WideRow, n)
	for i := range rows {
		rows[i] = WideRow{
			Keys: []uint64{
				src.Uint64n(4) * 0x9e3779b97f4a7c15,
				src.Uint64n(3) * 0x517cc1b727220a95,
			},
			Val: src.Uint64n(1 << 20),
		}
	}
	return rows
}

// refGroupByCols is the plain-Go reference of GroupByCols over wide rows.
func refGroupByCols(rows []WideRow, agg Agg) []WideRow {
	type stats struct{ sum, sq, cnt, minv, maxv uint64 }
	aggs := map[[2]uint64]*stats{}
	var order [][2]uint64
	for _, r := range rows {
		k := [2]uint64{r.Keys[0], r.Keys[1]}
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
	out := make([]WideRow, len(order))
	for i, k := range order {
		s := aggs[k]
		out[i] = WideRow{Keys: []uint64{k[0], k[1]}, Val: refAgg(agg, s.sum, s.sq, s.cnt, s.minv, s.maxv)}
	}
	return out
}

func checkWideRows(t *testing.T, got, want []WideRow, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d\ngot  %v\nwant %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].Val != want[i].Val || got[i].Keys[0] != want[i].Keys[0] || got[i].Keys[1] != want[i].Keys[1] {
			t.Fatalf("%s: row %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestGroupByColsWide drives the composite GROUP BY (a, b) through the
// public API under every aggregation, including the one-pass (sum, count)
// Avg and Var.
func TestGroupByColsWide(t *testing.T) {
	rows := wideQueryRows(150)
	tab := mustWideTable(t, rows)
	if tab.Width() != 2 {
		t.Fatalf("width = %d, want 2", tab.Width())
	}
	for _, agg := range []Agg{AggSum, AggCount, AggMin, AggMax, AggAvg, AggVar} {
		got, _, err := GroupByCols(Config{Mode: ModeSerial}, tab, agg)
		if err != nil {
			t.Fatalf("agg %d: %v", agg, err)
		}
		checkWideRows(t, got.WideRows(), refGroupByCols(rows, agg), fmt.Sprintf("GroupByCols agg %d", agg))
	}
}

// TestAvgVarNarrow pins the new aggregates on a hand-checked width-1 table.
func TestAvgVarNarrow(t *testing.T) {
	tab := mustTable(t, []Row{
		{1, 10}, {2, 7}, {1, 20}, {1, 30}, {2, 7},
	})
	avg, _, err := GroupBy(Config{Mode: ModeSerial}, tab, AggAvg)
	if err != nil {
		t.Fatal(err)
	}
	wantAvg := []Row{{1, 20}, {2, 7}}
	for i, r := range wantAvg {
		if avg.Rows()[i] != r {
			t.Fatalf("avg = %v, want %v", avg.Rows(), wantAvg)
		}
	}
	vr, _, err := GroupBy(Config{Mode: ModeSerial}, tab, AggVar)
	if err != nil {
		t.Fatal(err)
	}
	// Group 1: E[X^2] = (100+400+900)/3 = 466, mean 20 → var 66.
	wantVar := []Row{{1, 66}, {2, 0}}
	for i, r := range wantVar {
		if vr.Rows()[i] != r {
			t.Fatalf("var = %v, want %v", vr.Rows(), wantVar)
		}
	}
}

// TestWideQueryPipeline runs the fused Distinct→GroupBy→TopK pipeline over
// a two-column table and checks it against the staged execution (one
// public operator at a time) and the plain-Go reference.
func TestWideQueryPipeline(t *testing.T) {
	rows := wideQueryRows(120)
	for i := range rows {
		rows[i].Val = uint64(i) // distinct values: TopK tie-breaks exact
	}
	tab := mustWideTable(t, rows)
	q := Query{Distinct: true, GroupBy: AggSum, TopK: 3}

	fused, _, err := RunQuery(Config{Mode: ModeSerial}, tab, q)
	if err != nil {
		t.Fatal(err)
	}
	base := runStaged(t, Config{Mode: ModeSerial}, tab, q)
	// Distinct keeps each tuple's earliest (distinct) value; the singleton
	// sums stay distinct, so the top-3 is unique and both paths must agree
	// exactly.
	checkWideRows(t, fused.WideRows(), base.WideRows(), "wide fused vs staged")
	if len(fused.WideRows()) != 3 {
		t.Fatalf("wide top-3: %d rows", len(fused.WideRows()))
	}

	// Filters over wide tables are a declared follow-on: reject, not
	// mis-execute.
	if _, _, err := RunQuery(Config{Mode: ModeSerial}, tab, Query{Filter: func(Row) bool { return true }}); err == nil {
		t.Fatal("wide table with Filter should be rejected")
	}
	if _, _, err := Filter(Config{Mode: ModeSerial}, tab, func(Row) bool { return true }); err == nil {
		t.Fatal("Filter over wide table should be rejected")
	}
	if _, _, err := Join(Config{Mode: ModeSerial}, tab, tab); err == nil {
		t.Fatal("Join over wide tables should be rejected")
	}
}

// TestWideQueryObliviousTrace is the width-2 trace satellite at the public
// layer: same-shape two-column tables with wildly different contents must
// produce identical views through the planned pipeline.
func TestWideQueryObliviousTrace(t *testing.T) {
	const n = 80
	src := prng.New(31)
	contents := [][]WideRow{make([]WideRow, n), make([]WideRow, n), make([]WideRow, n)}
	for i := 0; i < n; i++ {
		contents[0][i] = WideRow{Keys: []uint64{^uint64(1), ^uint64(1)}, Val: 0}
		contents[1][i] = WideRow{Keys: []uint64{uint64(i) << 45, uint64(i)}, Val: uint64(i)}
		contents[2][i] = WideRow{Keys: []uint64{src.Uint64n(5), src.Uint64n(3)}, Val: src.Uint64n(1 << 30)}
	}
	q := Query{Distinct: true, GroupBy: AggAvg, TopK: 4}
	traceOf := func(rows []WideRow) trace.Fingerprint {
		tab := mustWideTable(t, rows)
		_, rep, err := RunQuery(Config{Mode: ModeMetered, Trace: true, Seed: 9}, tab, q)
		if err != nil {
			t.Fatal(err)
		}
		return rep.TraceFingerprint
	}
	ref := traceOf(contents[0])
	for i := 1; i < len(contents); i++ {
		if !traceOf(contents[i]).Equal(ref) {
			t.Fatalf("wide planned trace differs between contents 0 and %d — record contents leak", i)
		}
	}
}

// TestWideGroupByBeyondRowLimit is the acceptance stress: a two-column
// GROUP BY (a, b) with full-range uint64 column values over a relation of
// more than 2^20 rows — beyond the old MaxRows — loads, runs under the
// parallel pool, and matches the plain-Go reference.
func TestWideGroupByBeyondRowLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("2^20+1-row group-by takes tens of seconds; skipped with -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation multiplies the 2^21-element sort cost; covered by the non-race run")
	}
	const n = 1<<20 + 1 // pads to 2^21 elements
	src := prng.New(555)
	rows := make([]WideRow, n)
	for i := range rows {
		rows[i] = WideRow{
			Keys: []uint64{
				src.Uint64n(3) * 0x9e3779b97f4a7c15, // full-range column values
				src.Uint64n(2) * 0x517cc1b727220a95,
			},
			Val: src.Uint64n(1 << 20),
		}
	}
	tab := mustWideTable(t, rows)
	got, _, err := GroupByCols(Config{}, tab, AggAvg)
	if err != nil {
		t.Fatal(err)
	}
	checkWideRows(t, got.WideRows(), refGroupByCols(rows, AggAvg), "GroupByCols beyond 2^20 rows")
}
