package oblivmc

// Public-surface tests for the sort-backend configuration and the
// wide-predicate filter forms added alongside the shuffle-then-sort
// backend.

import (
	"strings"
	"testing"

	"oblivmc/internal/prng"
)

// TestSortBackendsAgree runs the same queries under every backend setting
// (bitonic, forced shuffle, auto on a table above the public crossover) and
// requires identical results — the public half of the backend-equivalence
// property.
func TestSortBackendsAgree(t *testing.T) {
	src := prng.New(77)
	rows := make([]Row, 10000) // pads to 2^14 slots, above core.DefaultShuffleCrossover
	for i := range rows {
		rows[i] = Row{Key: src.Uint64n(40), Val: src.Uint64n(1 << 20)}
	}
	tab := mustTable(t, rows)
	q := Query{
		Filter:   func(r Row) bool { return r.Val%5 != 0 },
		Distinct: true,
		GroupBy:  AggSum,
		TopK:     7,
	}
	cfgs := []Config{
		{Mode: ModeSerial, Seed: 3, SortBackend: SortBitonic},
		{Mode: ModeSerial, Seed: 3, SortBackend: SortShuffle}, // default seeding: fresh crypto/rand coins per sort
		{Mode: ModeSerial, Seed: 3, SortBackend: SortAuto},
		{Mode: ModeSerial, Seed: 9, SortBackend: SortShuffle},                             // different Seed must not change results
		{Mode: ModeSerial, Seed: 9, SortBackend: SortShuffle, DeterministicShuffle: true}, // nor the seed-pinned trace mode
	}
	var ref Table
	for i, cfg := range cfgs {
		got, _, err := RunQuery(cfg, tab, q)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = got
			continue
		}
		if len(got.Rows()) != len(ref.Rows()) {
			t.Fatalf("config %d: %d rows, want %d", i, len(got.Rows()), len(ref.Rows()))
		}
		for j := range ref.Rows() {
			if got.Rows()[j] != ref.Rows()[j] {
				t.Fatalf("config %d: row %d = %v, want %v", i, j, got.Rows()[j], ref.Rows()[j])
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
