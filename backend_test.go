package oblivmc

// Public-surface tests for the sort-backend configuration and the
// wide-predicate filter forms added alongside the shuffle-then-sort
// backend.

import (
	"fmt"
	"strings"
	"testing"

	"oblivmc/internal/prng"
)

// TestSortBackendsAgree runs the same queries under every backend setting
// (bitonic, forced shuffle, auto below and above the public crossover) and
// requires identical results — the public half of the backend-equivalence
// property.
func TestSortBackendsAgree(t *testing.T) {
	src := prng.New(77)
	rows := make([]Row, 10000) // pads to 2^14 slots, above core.DefaultShuffleCrossover
	for i := range rows {
		rows[i] = Row{Key: src.Uint64n(40), Val: src.Uint64n(1 << 20)}
	}
	type queryCase struct {
		name string
		tab  Table
		q    Query
		want []Row // nil: the first config's rows are the reference
	}
	cases := []queryCase{{"fused", mustTable(t, rows), Query{
		Filter:   func(r Row) bool { return r.Val%5 != 0 },
		Distinct: true,
		GroupBy:  AggSum,
		TopK:     7,
	}, nil}}
	// Tie-heavy TopK: with four distinct values the value sort is almost
	// all tie-break, so every backend must order ties by input position —
	// the plain-Go reference (value descending, then position ascending) —
	// on a table below the crossover (bitonic under SortAuto) and one above.
	for _, n := range []int{1000, len(rows)} {
		tied := make([]Row, n)
		for i := range tied {
			tied[i] = Row{Key: uint64(i), Val: rows[i].Val % 4}
		}
		q := Query{TopK: n / 3}
		cases = append(cases, queryCase{fmt.Sprintf("tie-heavy TopK n=%d", n), mustTable(t, tied), q, refQuery(tied, q)})
	}
	cfgs := []Config{
		{Mode: ModeSerial, Seed: 3, SortBackend: SortBitonic},
		{Mode: ModeSerial, Seed: 3, SortBackend: SortShuffle}, // default seeding: fresh crypto/rand coins per sort
		{Mode: ModeSerial, Seed: 3, SortBackend: SortAuto},
		{Mode: ModeSerial, Seed: 9, SortBackend: SortShuffle},                             // different Seed must not change results
		{Mode: ModeSerial, Seed: 9, SortBackend: SortShuffle, DeterministicShuffle: true}, // nor the seed-pinned trace mode
	}
	for _, qc := range cases {
		want := qc.want
		for i, cfg := range cfgs {
			got, _, err := RunQuery(cfg, qc.tab, qc.q)
			if err != nil {
				t.Fatal(err)
			}
			gotRows := got.Rows()
			if want == nil {
				want = gotRows
				continue
			}
			if len(gotRows) != len(want) {
				t.Fatalf("%s, config %d: %d rows, want %d", qc.name, i, len(gotRows), len(want))
			}
			for j := range want {
				if gotRows[j] != want[j] {
					t.Fatalf("%s, config %d: row %d = %v, want %v", qc.name, i, j, gotRows[j], want[j])
				}
			}
		}
	}
}

// TestFilterRowsWide drives the wide-predicate Filter surface over a
// two-column table against a plain reference, and checks the width-1 form
// agrees with the narrow Filter.
func TestFilterRowsWide(t *testing.T) {
	rows := wideQueryRows(120)
	tab := mustWideTable(t, rows)
	pred := func(r WideRow) bool { return r.Keys[1] != 0 && r.Val%2 == 0 }
	got, _, err := FilterRows(Config{Mode: ModeSerial}, tab, pred)
	if err != nil {
		t.Fatal(err)
	}
	var want []WideRow
	for _, r := range rows {
		if pred(r) {
			want = append(want, r)
		}
	}
	checkWideRows(t, got.WideRows(), want, "FilterRows wide")

	// Width-1 FilterRows ≡ Filter.
	narrow := mustTable(t, []Row{{1, 10}, {2, 25}, {3, 30}, {4, 45}})
	viaWide, _, err := FilterRows(Config{Mode: ModeSerial}, narrow, func(r WideRow) bool { return r.Val%10 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	viaNarrow, _, err := Filter(Config{Mode: ModeSerial}, narrow, func(r Row) bool { return r.Val%10 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if len(viaWide.Rows()) != len(viaNarrow.Rows()) {
		t.Fatalf("wide/narrow filter disagree: %v vs %v", viaWide.Rows(), viaNarrow.Rows())
	}
	for i := range viaNarrow.Rows() {
		if viaWide.Rows()[i] != viaNarrow.Rows()[i] {
			t.Fatalf("wide/narrow filter disagree at %d", i)
		}
	}
}

// TestQueryFilterWide runs a filtered wide-table pipeline end to end — the
// public surface the ROADMAP's "wide filters" follow-on called for — in
// both fused and staged (one public operator at a time) form, including
// the key-only pushdown declaration.
func TestQueryFilterWide(t *testing.T) {
	rows := wideQueryRows(150)
	tab := mustWideTable(t, rows)
	pred := func(r WideRow) bool { return r.Keys[0] != 0 }
	for _, keyOnly := range []bool{false, true} {
		q := Query{FilterWide: pred, FilterKeyOnly: keyOnly, GroupBy: AggSum}
		// Reference: filter then group in first-occurrence order.
		var kept []WideRow
		for _, r := range rows {
			if pred(r) {
				kept = append(kept, r)
			}
		}
		want := refGroupByCols(kept, AggSum)

		got, _, err := RunQuery(Config{Mode: ModeSerial}, tab, q)
		if err != nil {
			t.Fatal(err)
		}
		checkWideRows(t, got.WideRows(), want, "Query.FilterWide planned")

		staged := runStaged(t, Config{Mode: ModeSerial}, tab, q)
		checkWideRows(t, staged.WideRows(), want, "Query.FilterWide staged")
	}

	// The wide filter participates in planning like the narrow one.
	pl, err := ExplainWidth(Query{FilterWide: pred, FilterKeyOnly: true, Distinct: true}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pl, "filter") {
		t.Fatalf("wide filter missing from plan: %s", pl)
	}

	// Narrow Filter on wide tables stays rejected; both forms at once are
	// rejected; FilterWide works where Filter is refused.
	if _, _, err := RunQuery(Config{Mode: ModeSerial}, tab, Query{Filter: func(Row) bool { return true }}); err == nil {
		t.Fatal("narrow Filter over a wide table should be rejected")
	}
	if _, _, err := RunQuery(Config{Mode: ModeSerial}, tab, Query{
		Filter:     func(Row) bool { return true },
		FilterWide: pred,
	}); err == nil {
		t.Fatal("Filter and FilterWide together should be rejected")
	}
	// Explain shares RunQuery's shape validation, so it refuses the same
	// combination rather than blessing a plan the executor rejects.
	if _, err := Explain(Query{
		Filter:     func(Row) bool { return true },
		FilterWide: pred,
	}); err == nil {
		t.Fatal("Explain should reject Filter and FilterWide together")
	}
}

// TestDeterministicShuffleTraceModes pins the Config plumbing of the
// shuffle backend's two seeding modes: with DeterministicShuffle the
// metered trace replays across runs at a fixed Seed (what the fingerprint
// harness and benchmarks rely on), while the default draws a fresh secret
// permutation per run, so two runs of the identical query present
// different views.
func TestDeterministicShuffleTraceModes(t *testing.T) {
	src := prng.New(5)
	rows := make([]Row, 512)
	for i := range rows {
		rows[i] = Row{Key: src.Uint64n(9), Val: src.Uint64n(1 << 16)}
	}
	tab := mustTable(t, rows)
	run := func(cfg Config) *Report {
		cfg.Mode = ModeMetered
		cfg.Trace = true
		_, rep, err := GroupBy(cfg, tab, AggSum)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	det := Config{Seed: 11, SortBackend: SortShuffle, DeterministicShuffle: true}
	if !run(det).TraceFingerprint.Equal(run(det).TraceFingerprint) {
		t.Fatal("DeterministicShuffle runs at one Seed must replay the identical trace")
	}
	secret := Config{Seed: 11, SortBackend: SortShuffle}
	if run(secret).TraceFingerprint.Equal(run(secret).TraceFingerprint) {
		t.Fatal("default shuffle runs replayed an identical trace — permutations must be fresh secrets")
	}
}
