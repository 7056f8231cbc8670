package oblivmc

// Session-level tests: a long-lived Session (persistent pool, space,
// arena, sorter) must serve back-to-back queries with the exact rows of
// the one-shot surfaces, count its executed sort passes faithfully, and
// realize the cross-query order-token savings the serving layer is built
// on.

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"oblivmc/internal/plan"
)

// keySorted returns rows in ascending (key, first-occurrence) order — the
// public order of a KeyOrderOut materialization.
func keySorted(rows []Row) []Row {
	out := append([]Row(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func TestSessionMatchesOneShot(t *testing.T) {
	rows := queryRows(256)
	tab, err := NewTable(rows)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: ModeSerial}
	sess := NewSession(cfg)
	defer sess.Close()
	for i, q := range queryShapes() {
		if i%3 != 0 { // every shape family, a third of the full sweep
			continue
		}
		want, _, err := RunQuery(cfg, tab, q)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := sess.RunQuery(tab, q)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("shape %d", i)
		checkQueryResult(t, label+" (session)", got.Rows(), rows, q)
		if len(got.Rows()) != len(want.Rows()) {
			t.Fatalf("%s: session %d rows, one-shot %d", label, len(got.Rows()), len(want.Rows()))
		}
		kind, err := queryAgg(q)
		if err != nil {
			t.Fatal(err)
		}
		pl := plan.Build(q.shape(kind, 1, OrderNone))
		if stats.SortPasses != pl.SortPasses {
			t.Fatalf("%s: executed %d sorts, plan says %d (%s)", label, stats.SortPasses, pl.SortPasses, pl)
		}
	}
	// A package-level call is a throwaway session: a fresh metered session's
	// Report is the one-shot's, counter for counter and fingerprint.
	metered := Config{Mode: ModeMetered, Trace: true, Seed: 3, DeterministicShuffle: true}
	dim, err := NewTable([]Row{{Key: 1, Val: 10}, {Key: 3, Val: 30}, {Key: 3, Val: 31}})
	if err != nil {
		t.Fatal(err)
	}
	shapes := append(queryShapes(), Query{Join: &JoinSpec{Left: dim, MaxOut: 512}, GroupBy: AggSum})
	for i, q := range shapes {
		if i%3 != 0 && q.Join == nil {
			continue
		}
		_, want, err := RunQuery(metered, tab, q)
		if err != nil {
			t.Fatal(err)
		}
		fresh := NewSession(metered)
		_, stats, err := fresh.RunQuery(tab, q)
		fresh.Close()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Report == nil || *stats.Report != *want {
			t.Fatalf("shape %d: fresh metered session report %+v, one-shot %+v", i, stats.Report, want)
		}
	}
}

func TestSessionKeyOrderOut(t *testing.T) {
	rows := queryRows(200)
	tab, err := NewTable(rows)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(Config{Mode: ModeSerial})
	defer sess.Close()
	q := Query{GroupBy: AggSum, KeyOrderOut: true}
	out, stats, err := sess.RunQuery(tab, q)
	if err != nil {
		t.Fatal(err)
	}
	if out.Order() != OrderKeys {
		t.Fatalf("result order token = %v, want OrderKeys", out.Order())
	}
	if stats.SortPasses != 1 {
		t.Fatalf("keyout groupby executed %d sorts, want 1 (plan %s)", stats.SortPasses, stats.Plan)
	}
	want := keySorted(refQuery(rows, Query{GroupBy: AggSum}))
	got := out.Rows()
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestSessionOrderTokenChaining is the cross-query seam end to end: a
// KeyOrderOut materialization feeds a follow-up query that skips its key
// sort — executed passes, not just the rendered plan.
func TestSessionOrderTokenChaining(t *testing.T) {
	rows := queryRows(256)
	tab, err := NewTable(rows)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(Config{Mode: ModeSerial})
	defer sess.Close()

	agg, stats, err := sess.RunQuery(tab, Query{GroupBy: AggSum, KeyOrderOut: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SortPasses != 1 || agg.Order() != OrderKeys {
		t.Fatalf("materialization: %d sorts, order %v; want 1, OrderKeys", stats.SortPasses, agg.Order())
	}

	// Follow-up 1: zero-sort aggregate over the ordered materialization.
	out, stats, err := sess.RunQuery(agg, Query{GroupBy: AggMax, KeyOrderOut: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SortPasses != 0 || stats.ColdSortPasses != 1 {
		t.Fatalf("ordered follow-up: executed %d sorts (cold %d), want 0 (1): %s",
			stats.SortPasses, stats.ColdSortPasses, stats.Plan)
	}
	want := keySorted(refQuery(agg.Rows(), Query{GroupBy: AggMax}))
	got := out.Rows()
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
		}
	}

	// Follow-up 2: the token also saves a pass when the output order is the
	// default position order (1 sort instead of the cold 2).
	_, stats, err = sess.RunQuery(agg, Query{GroupBy: AggMin})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SortPasses != 1 || stats.ColdSortPasses != 2 {
		t.Fatalf("pos-order follow-up: executed %d sorts (cold %d), want 1 (2): %s",
			stats.SortPasses, stats.ColdSortPasses, stats.Plan)
	}

	// The skip is visible in Explain against the carried token.
	plan, err := ExplainTable(agg, Query{GroupBy: AggMax, KeyOrderOut: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := "in(key,pos) → aggregate [0 sorts, cold 1, staged 2]"; plan != want {
		t.Fatalf("ExplainTable = %q, want %q", plan, want)
	}
}

// TestSessionParallelPoolReuse drives a ModeParallel session (persistent
// work-stealing pool) through mixed shapes, including a join, and checks
// rows against the serial one-shot reference.
func TestSessionParallelPoolReuse(t *testing.T) {
	rows := queryRows(300)
	tab, err := NewTable(rows)
	if err != nil {
		t.Fatal(err)
	}
	dim, err := NewTable([]Row{{Key: 1, Val: 10}, {Key: 3, Val: 30}, {Key: 5, Val: 50}, {Key: 3, Val: 31}})
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(Config{Mode: ModeParallel, Workers: 2})
	defer sess.Close()
	queries := []Query{
		{GroupBy: AggSum},
		{Distinct: true, TopK: 4},
		{Join: &JoinSpec{Left: dim, MaxOut: 2048}, GroupBy: AggCount},
		{Filter: func(r Row) bool { return r.Key%2 == 1 }, FilterKeyOnly: true, GroupBy: AggSum, KeyOrderOut: true},
	}
	for i, q := range queries {
		want, _, err := RunQuery(Config{Mode: ModeSerial}, tab, q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := sess.RunQuery(tab, q)
		if err != nil {
			t.Fatal(err)
		}
		gr, wr := got.Rows(), want.Rows()
		if q.KeyOrderOut {
			wr = keySorted(wr)
		}
		if len(gr) != len(wr) {
			t.Fatalf("query %d: %d rows, want %d", i, len(gr), len(wr))
		}
		for j := range wr {
			if gr[j] != wr[j] {
				t.Fatalf("query %d row %d = %v, want %v", i, j, gr[j], wr[j])
			}
		}
	}
}

func TestSessionClosed(t *testing.T) {
	sess := NewSession(Config{Mode: ModeSerial})
	sess.Close()
	sess.Close() // idempotent
	tab, err := NewTable([]Row{{Key: 1, Val: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.RunQuery(tab, Query{Distinct: true}); err == nil {
		t.Fatal("RunQuery on a closed session must fail")
	}
}

// TestSessionRunGraphMatchesOneShot: the graph operators run on a session
// (the path every served graph spec takes) must return the one-shot
// operators' exact rows on every backend and executor, report the sort
// passes they executed — equal to the plan wherever the plan is exact,
// within its bound where a loop's round count is revealed — and leave the
// session reusable: one session serves the whole operator list. A fresh
// metered session's run is the one-shot run, counter for counter, for every
// operator.
func TestSessionRunGraphMatchesOneShot(t *testing.T) {
	edges := testEdges(41, 40, 64, 100)
	tab := mustEdgeTable(t, edges)
	n, m := graphShape(edges), len(edges)
	ops := []struct {
		name    string
		op      GraphOp
		rounds  int
		sorts   int // the exact executed count, or 0 where the plan only bounds it
		oneShot func(Config) (Table, *Report, error)
	}{
		{"cc-4", GraphOpComponents, 4, 1 + 3*4, func(cfg Config) (Table, *Report, error) { return Components(cfg, tab, 4) }},
		{"cc-converge", GraphOpComponents, 0, 0, func(cfg Config) (Table, *Report, error) { return Components(cfg, tab, 0) }},
		{"msf", GraphOpMSF, 0, 0, func(cfg Config) (Table, *Report, error) { return MSF(cfg, tab) }},
		// PageRank sorts only in its setup: the source and the destination
		// groupings' recorded sorts plus the source gather's request sort;
		// its iterations replay and sort nothing.
		{"pagerank-3", GraphOpPageRank, 3, 2 + 1 + 0*3, func(cfg Config) (Table, *Report, error) { return PageRank(cfg, tab, 3) }},
	}
	backends := []Config{
		{SortBackend: SortBitonic},
		{SortBackend: SortAuto, Seed: 5, DeterministicShuffle: true},
		{SortBackend: SortShuffle, Seed: 5, DeterministicShuffle: true},
	}
	for _, cfg := range backends {
		for _, mode := range []Config{{Mode: ModeSerial}, {Mode: ModeParallel, Workers: 2}} {
			cfg.Mode, cfg.Workers = mode.Mode, mode.Workers
			sess := NewSession(cfg)
			for _, tc := range ops {
				label := fmt.Sprintf("%s backend=%d mode=%d", tc.name, cfg.SortBackend, cfg.Mode)
				want, _, err := tc.oneShot(cfg)
				if err != nil {
					t.Fatalf("%s one-shot: %v", label, err)
				}
				got, stats, err := sess.RunGraphCtx(context.Background(), tab, tc.op, tc.rounds)
				if err != nil {
					t.Fatalf("%s session: %v", label, err)
				}
				if !reflect.DeepEqual(got.WideRows(), want.WideRows()) {
					t.Fatalf("%s: session rows differ from the one-shot operator's", label)
				}
				pl := tc.op.plan(n, m, tc.rounds)
				planned := pl.TotalSorts() // -1: a convergence loop has no a-priori bound
				if tc.sorts > 0 && (stats.SortPasses != tc.sorts || planned != tc.sorts) {
					t.Fatalf("%s: executed %d sorts, plan says %d, want %d (%s)", label, stats.SortPasses, planned, tc.sorts, pl)
				}
				if stats.SortPasses <= 0 || (planned >= 0 && stats.SortPasses > planned) {
					t.Fatalf("%s: executed %d sorts, outside the plan's bound %d (%s)", label, stats.SortPasses, planned, pl)
				}
				if stats.ColdSortPasses != stats.SortPasses || stats.Plan != pl.String() || stats.Order != OrderNone {
					t.Fatalf("%s: stats %+v, want cold == executed, plan %q, no order token", label, stats, pl)
				}
			}
			// An unknown operator is an argument error, not a fault: the
			// session keeps serving.
			if _, _, err := sess.RunGraphCtx(context.Background(), tab, GraphOp(-1), 0); err == nil || sess.Poisoned() {
				t.Fatalf("GraphOp(-1) on a session: err = %v, poisoned = %t", err, sess.Poisoned())
			}
			if _, _, err := sess.RunQuery(mustTable(t, lcRows(64)), Query{GroupBy: AggSum}); err != nil {
				t.Fatalf("query after the graph runs: %v", err)
			}
			sess.Close()
		}
		cfg.Mode, cfg.Trace = ModeMetered, true
		for _, tc := range ops {
			_, want, err := tc.oneShot(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sess := NewSession(cfg)
			_, stats, err := sess.RunGraphCtx(context.Background(), tab, tc.op, tc.rounds)
			sess.Close()
			if err != nil {
				t.Fatal(err)
			}
			if stats.Report == nil || *stats.Report != *want {
				t.Fatalf("%s backend=%d: fresh metered session report %+v, one-shot %+v", tc.name, cfg.SortBackend, stats.Report, want)
			}
		}
	}
}
