package serve

// Server-layer tests for graph query specs: the Graph clause dispatches
// to the graph operators over a loaded width-2 edge table, rides the
// same result cache and admission path as relational specs, and rejects
// malformed combinations with typed errors.

import (
	"strings"
	"testing"

	"oblivmc"
)

func edgeRows(edges [][3]uint64) []oblivmc.WideRow {
	rows := make([]oblivmc.WideRow, len(edges))
	for i, e := range edges {
		rows[i] = oblivmc.WideRow{Keys: []uint64{e[0], e[1]}, Val: e[2]}
	}
	return rows
}

// ringEdges is a deterministic n-vertex graph for the lifecycle tests: a
// ring plus one chord per vertex (2n weighted edges).
func ringEdges(n uint64) []oblivmc.WideRow {
	var edges [][3]uint64
	for v := uint64(0); v < n; v++ {
		edges = append(edges, [3]uint64{v, (v + 1) % n, v}, [3]uint64{v, (v*7 + 3) % n, v + n})
	}
	return edgeRows(edges)
}

func TestGraphSpecComponents(t *testing.T) {
	s := serialServer(t, 1)
	// Path 0-1-2 plus the separate pair 3-4: labels are the component
	// minimums [0 0 0 3 3].
	mustLoad(t, s, "g", edgeRows([][3]uint64{{0, 1, 5}, {1, 2, 5}, {3, 4, 5}}))

	res, err := s.Execute(QuerySpec{Table: "g", Graph: "cc"})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{0, 0, 0, 3, 3}
	rows := res.Table.Rows()
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for v, r := range rows {
		if r.Key != uint64(v) || r.Val != want[v] {
			t.Fatalf("row %d = %+v, want {%d %d}", v, r, v, want[v])
		}
	}
	if res.Stats.Cached {
		t.Fatal("first graph query reported cached")
	}
	if !strings.Contains(res.Stats.Plan, "cc-minhook") {
		t.Fatalf("plan %q: missing cc-minhook", res.Stats.Plan)
	}
	// A convergence run has no planned total; the stats are the count the
	// lane's session executed — the endpoint gather's one recorded sort,
	// then whole 3-sort rounds (7 before gathers replayed their request
	// sorts, 9 before gathers and scatters merged their address-ordered
	// sides).
	if sp := res.Stats.SortPasses; sp < 4 || (sp-1)%3 != 0 || res.Stats.ColdSortPasses != sp {
		t.Fatalf("convergence run: sorts=%d cold=%d, want the executed count (1 + 3k, k >= 1)", sp, res.Stats.ColdSortPasses)
	}

	// Same spec again: served from the cross-query result cache.
	res2, err := s.Execute(QuerySpec{Table: "g", Graph: "cc"})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Stats.Cached || res2.Stats.SortPasses != 0 {
		t.Fatalf("repeat graph query: cached=%t sorts=%d, want cached with 0 sorts", res2.Stats.Cached, res2.Stats.SortPasses)
	}

	// A different rounds parameter is a different cache key.
	res3, err := s.Execute(QuerySpec{Table: "g", Graph: "cc", GraphRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Stats.Cached {
		t.Fatal("fixed-rounds variant unexpectedly hit the convergence run's cache entry")
	}
	if res3.Stats.SortPasses != 1+4*3 {
		t.Fatalf("fixed-rounds sort accounting = %d, want %d", res3.Stats.SortPasses, 1+4*3)
	}
}

func TestGraphSpecMSFAndPageRank(t *testing.T) {
	s := serialServer(t, 1)
	mustLoad(t, s, "g", edgeRows([][3]uint64{{0, 1, 9}, {1, 2, 1}, {0, 2, 3}, {3, 4, 2}}))

	res, err := s.Execute(QuerySpec{Table: "g", Graph: "msf", As: "forest"})
	if err != nil {
		t.Fatal(err)
	}
	// Kruskal on the triangle keeps {1,2} and {0,2}, drops {0,1}.
	if res.Table.Len() != 3 {
		t.Fatalf("%d forest edges, want 3", res.Table.Len())
	}
	if res.StoredAs != "forest" || res.StoredVersion != 1 {
		t.Fatalf("stored %q@%d, want forest@1", res.StoredAs, res.StoredVersion)
	}
	// The forest loop exits early (round count revealed): the stats are the
	// executed count, within the plan's bound of 18 sorts × (⌈log₂ 5⌉+2)² =
	// 25 rounds (24 sorts per round before gathers and scatters merged).
	if sp := res.Stats.SortPasses; sp <= 0 || sp > 18*25 {
		t.Fatalf("msf executed %d sorts, want within (0, %d] (%s)", sp, 18*25, res.Stats.Plan)
	}
	// msf ignores graph_rounds, so a request carrying one is the same
	// computation: served from the first run's cache entry.
	again, err := s.Execute(QuerySpec{Table: "g", Graph: "msf", GraphRounds: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Stats.Cached || again.Stats.SortPasses != 0 {
		t.Fatalf("msf with graph_rounds: cached=%t sorts=%d, want cached with 0 sorts", again.Stats.Cached, again.Stats.SortPasses)
	}

	pr, err := s.Execute(QuerySpec{Table: "g", Graph: "pagerank"})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Table.Len() != 5 {
		t.Fatalf("pagerank: %d rows, want 5 (one per vertex)", pr.Table.Len())
	}
	if !strings.Contains(pr.Stats.Plan, "pagerank") {
		t.Fatalf("plan %q: missing pagerank", pr.Stats.Plan)
	}
	// The default 5 iterations sort nothing: the 3 sorts are the setup's
	// two edge groupings and the source gather's request sort.
	if want := 2 + 1 + 0*5; pr.Stats.SortPasses != want {
		t.Fatalf("pagerank executed %d sorts, plan says %d (%s)", pr.Stats.SortPasses, want, pr.Stats.Plan)
	}
}

func TestGraphSpecErrors(t *testing.T) {
	s := serialServer(t, 1)
	mustLoad(t, s, "g", edgeRows([][3]uint64{{0, 1, 5}}))
	mustLoad(t, s, "narrow", testRows(8, 4, 1)) // width 1: not an edge table

	if _, err := s.Execute(QuerySpec{Table: "g", Graph: "bfs"}); err == nil {
		t.Fatal("unknown graph op accepted")
	}
	if _, err := s.Execute(QuerySpec{Table: "g", Graph: "cc", GroupBy: "sum"}); err == nil {
		t.Fatal("graph spec with a relational clause accepted")
	}
	if _, err := s.Execute(QuerySpec{Table: "g", Graph: "cc", GraphRounds: -1}); err == nil {
		t.Fatal("negative rounds accepted")
	}
	if _, err := s.Execute(QuerySpec{Table: "narrow", Graph: "cc"}); err == nil {
		t.Fatal("width-1 table accepted as a graph")
	}
	if _, err := s.Execute(QuerySpec{Table: "missing", Graph: "cc"}); err == nil {
		t.Fatal("unknown table accepted")
	}

	plan, err := s.ExplainSpec(QuerySpec{Table: "g", Graph: "cc", GraphRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "cc-minhook") || !strings.Contains(plan, "2 rounds") {
		t.Fatalf("explain plan %q: missing cc-minhook / round count", plan)
	}
}
