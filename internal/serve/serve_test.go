package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"oblivmc"
	"oblivmc/internal/prng"
)

// serialServer builds a small deterministic server for tests.
func serialServer(t *testing.T, lanes int) *Server {
	t.Helper()
	s := NewServer(Options{
		Lanes:        lanes,
		QueueTimeout: 2 * time.Second,
		Exec:         oblivmc.Config{Mode: oblivmc.ModeSerial},
	})
	t.Cleanup(s.Shutdown)
	return s
}

func testRows(n, groups int, seed uint64) []oblivmc.WideRow {
	src := prng.New(seed)
	rows := make([]oblivmc.WideRow, n)
	for i := range rows {
		rows[i] = oblivmc.WideRow{Keys: []uint64{src.Uint64n(uint64(groups))}, Val: src.Uint64n(1000)}
	}
	return rows
}

func mustLoad(t *testing.T, s *Server, name string, rows []oblivmc.WideRow) {
	t.Helper()
	if _, err := s.LoadTable(name, rows, false); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryVersionsAndTypedErrors(t *testing.T) {
	r := NewRegistry()
	tab, err := oblivmc.NewTable([]oblivmc.Row{{Key: 1, Val: 2}})
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.Load("t", tab, false)
	if err != nil || v != 1 {
		t.Fatalf("first load: v=%d err=%v, want 1, nil", v, err)
	}
	if _, err := r.Load("t", tab, false); !errors.Is(err, ErrTableExists) {
		t.Fatalf("re-load without replace: %v, want ErrTableExists", err)
	}
	// The satellite fix: replacing bumps the version, and the sequence
	// survives a drop so stale cache keys can never be minted again.
	if v, err = r.Load("t", tab, true); err != nil || v != 2 {
		t.Fatalf("replace: v=%d err=%v, want 2, nil", v, err)
	}
	if err := r.Drop("t"); err != nil {
		t.Fatal(err)
	}
	if err := r.Drop("t"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("double drop: %v, want ErrNoSuchTable", err)
	}
	if _, _, err := r.Get("t"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("get after drop: %v, want ErrNoSuchTable", err)
	}
	if v, err = r.Load("t", tab, false); err != nil || v != 3 {
		t.Fatalf("load after drop: v=%d err=%v, want 3, nil", v, err)
	}
}

// TestCacheHitRunsZeroSorts is acceptance criterion 1: the repeat of an
// identical query is served from the materialized-result cache with zero
// executed oblivious sorts, returning identical rows.
func TestCacheHitRunsZeroSorts(t *testing.T) {
	s := serialServer(t, 1)
	mustLoad(t, s, "sales", testRows(256, 16, 7))
	spec := QuerySpec{Table: "sales", GroupBy: "sum", TopK: 5}

	cold, err := s.Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Cached || cold.Stats.SortPasses == 0 {
		t.Fatalf("cold run: cached=%t sorts=%d, want a real execution", cold.Stats.Cached, cold.Stats.SortPasses)
	}
	warm, err := s.Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.Cached || warm.Stats.SortPasses != 0 {
		t.Fatalf("repeat: cached=%t sorts=%d, want cached with 0 sorts", warm.Stats.Cached, warm.Stats.SortPasses)
	}
	a, b := cold.Table.Rows(), warm.Table.Rows()
	if len(a) != len(b) {
		t.Fatalf("cached rows differ in count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cached row %d = %v, want %v", i, b[i], a[i])
		}
	}
}

// TestOrderTokenFollowUpSavesSorts is acceptance criterion 2, at the
// server level: a follow-up query over a KeyOrderOut materialization
// executes at least one sort fewer than its cold plan (measured by the
// executed-pass counter), and the skip is visible in Explain.
func TestOrderTokenFollowUpSavesSorts(t *testing.T) {
	s := serialServer(t, 1)
	mustLoad(t, s, "sales", testRows(300, 24, 9))

	mat, err := s.Execute(QuerySpec{Table: "sales", GroupBy: "sum", KeyOrderOut: true, As: "totals"})
	if err != nil {
		t.Fatal(err)
	}
	if mat.StoredAs != "totals" || mat.Stats.Order != "keys" {
		t.Fatalf("materialization: stored_as=%q order=%q", mat.StoredAs, mat.Stats.Order)
	}

	follow, err := s.Execute(QuerySpec{Table: "totals", GroupBy: "max", KeyOrderOut: true})
	if err != nil {
		t.Fatal(err)
	}
	st := follow.Stats
	if st.Cached {
		t.Fatal("follow-up unexpectedly cached")
	}
	if st.SortPasses >= st.ColdSortPasses {
		t.Fatalf("follow-up executed %d sorts, cold plan %d — no token saving", st.SortPasses, st.ColdSortPasses)
	}
	if st.SortPasses != 0 || st.ColdSortPasses != 1 {
		t.Fatalf("follow-up: executed %d (cold %d), want 0 (1): %s", st.SortPasses, st.ColdSortPasses, st.Plan)
	}
	plan, err := s.ExplainSpec(QuerySpec{Table: "totals", GroupBy: "max", KeyOrderOut: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "in(key,pos)") || !strings.Contains(plan, "0 sorts, cold 1") {
		t.Fatalf("Explain must show the skipped sort: %q", plan)
	}
}

// TestReloadInvalidatesCachedResults is the satellite fix end to end:
// replacing a table bumps its version, so the previously cached result
// cannot be served against the new contents.
func TestReloadInvalidatesCachedResults(t *testing.T) {
	s := serialServer(t, 1)
	mustLoad(t, s, "t", testRows(128, 8, 1))
	spec := QuerySpec{Table: "t", GroupBy: "count"}
	r1, err := s.Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r2, err := s.Execute(spec); err != nil || !r2.Stats.Cached {
		t.Fatalf("repeat before reload: cached=%v err=%v", r2.Stats.Cached, err)
	}
	// Replace with a different relation (more rows, different counts).
	if _, err := s.LoadTable("t", testRows(200, 8, 2), true); err != nil {
		t.Fatal(err)
	}
	r3, err := s.Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Stats.Cached {
		t.Fatal("query after reload served from the stale cache entry")
	}
	sum := func(rows []oblivmc.Row) (n uint64) {
		for _, r := range rows {
			n += r.Val
		}
		return
	}
	if sum(r1.Table.Rows()) == sum(r3.Table.Rows()) {
		t.Fatal("reloaded relation produced the old counts — wrong table version served")
	}
}

// refSpec computes the expected narrow rows of a spec by running it
// through the one-shot serial engine on a token-free copy of the tables.
func refSpec(t *testing.T, s *Server, spec QuerySpec) []oblivmc.Row {
	t.Helper()
	tab, q, _, err := compileQuery(spec, s.reg)
	if err != nil {
		t.Fatal(err)
	}
	// Strip the token: rebuild the table from its public rows, so the
	// reference runs the cold plan.
	cold, err := oblivmc.NewTable(tab.Rows())
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := oblivmc.RunQuery(oblivmc.Config{Mode: oblivmc.ModeSerial}, cold, q)
	if err != nil {
		t.Fatal(err)
	}
	rows := out.Rows()
	if q.KeyOrderOut {
		rows = append([]oblivmc.Row(nil), rows...)
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
	}
	return rows
}

func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestHTTPSurface exercises the JSON endpoints: load, conflict, list,
// query, explain, drop, and the typed error statuses.
func TestHTTPSurface(t *testing.T) {
	s := serialServer(t, 1)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rows := []RowJSON{{Keys: []uint64{2}, Val: 7}, {Keys: []uint64{1}, Val: 9}, {Keys: []uint64{2}, Val: 3}}
	var info TableInfo
	if code := postJSON(t, ts.URL+"/v1/tables", LoadRequest{Name: "t", Rows: rows}, &info); code != 200 {
		t.Fatalf("load: HTTP %d", code)
	}
	if info.Version != 1 || info.Rows != 3 || info.Width != 1 {
		t.Fatalf("load info = %+v", info)
	}
	if code := postJSON(t, ts.URL+"/v1/tables", LoadRequest{Name: "t", Rows: rows}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate load: HTTP %d, want 409", code)
	}
	var listed []TableInfo
	resp, err := http.Get(ts.URL + "/v1/tables")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listed) != 1 || listed[0].Name != "t" {
		t.Fatalf("list = %+v", listed)
	}

	var qr QueryResponse
	if code := postJSON(t, ts.URL+"/v1/query", QuerySpec{Table: "t", GroupBy: "sum"}, &qr); code != 200 {
		t.Fatalf("query: HTTP %d", code)
	}
	want := map[uint64]uint64{2: 10, 1: 9}
	if len(qr.Rows) != 2 {
		t.Fatalf("query rows = %+v", qr.Rows)
	}
	for _, r := range qr.Rows {
		if want[r.Keys[0]] != r.Val {
			t.Fatalf("group %d = %d, want %d", r.Keys[0], r.Val, want[r.Keys[0]])
		}
	}
	if code := postJSON(t, ts.URL+"/v1/query", QuerySpec{Table: "missing"}, nil); code != http.StatusNotFound {
		t.Fatalf("query on missing table: HTTP %d, want 404", code)
	}
	if code := postJSON(t, ts.URL+"/v1/query", QuerySpec{Table: "t", GroupBy: "median"}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad aggregation: HTTP %d, want 400", code)
	}

	var ex ExplainResponse
	if code := postJSON(t, ts.URL+"/v1/explain", QuerySpec{Table: "t", GroupBy: "sum"}, &ex); code != 200 || ex.Plan == "" {
		t.Fatalf("explain: HTTP %d plan %q", code, ex.Plan)
	}

	// A misspelled ("topk" for top_k) or retired clause — any field the
	// spec does not declare — must be refused by name, not dropped from a
	// query that then runs without it.
	for _, path := range []string{"/v1/query", "/v1/explain"} {
		for _, field := range []string{"topk", "retired_clause"} {
			body := fmt.Sprintf(`{"table": "t", "group_by": "sum", %q: 1}`, field)
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var er errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(er.Error, field) ||
				!strings.Contains(er.Error, ErrBadSpec.Error()) {
				t.Fatalf("%s with unknown field %q: HTTP %d %q, want 400 ErrBadSpec naming the field", path, field, resp.StatusCode, er.Error)
			}
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/tables/t", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != 200 {
		t.Fatalf("drop: HTTP %d", dresp.StatusCode)
	}
	if code := postJSON(t, ts.URL+"/v1/query", QuerySpec{Table: "t"}, nil); code != http.StatusNotFound {
		t.Fatalf("query after drop: HTTP %d, want 404", code)
	}
}

// TestLoadRejectsUnknownFields pins strict load decoding: a misspelled
// "replace" must not load as a non-replace, nor a misspelled "rows" as an
// empty table — each is a 400 naming the field, and nothing is bound.
func TestLoadRejectsUnknownFields(t *testing.T) {
	s := serialServer(t, 1)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, c := range []struct{ body, field string }{
		{`{"name": "t", "rows": [{"keys": [1], "val": 2}], "replce": true}`, "replce"},
		{`{"name": "t", "row": [{"keys": [1], "val": 2}]}`, "row"},
	} {
		resp, err := http.Post(ts.URL+"/v1/tables", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var er errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(er.Error, c.field) {
			t.Fatalf("load %s: HTTP %d %q, want 400 naming %q", c.body, resp.StatusCode, er.Error, c.field)
		}
	}
	if n := len(s.Registry().List()); n != 0 {
		t.Fatalf("%d tables bound after refused loads, want 0", n)
	}
}

// TestAdmissionBusy pins the queue-timeout path: with every lane checked
// out and a tiny timeout, Execute fails fast with ErrBusy (HTTP 503).
func TestAdmissionBusy(t *testing.T) {
	s := NewServer(Options{
		Lanes:        1,
		QueueTimeout: 10 * time.Millisecond,
		Exec:         oblivmc.Config{Mode: oblivmc.ModeSerial},
	})
	defer s.Shutdown()
	mustLoad(t, s, "t", testRows(64, 4, 3))
	sess, err := s.checkout(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(QuerySpec{Table: "t", Distinct: true}); !errors.Is(err, ErrBusy) {
		t.Fatalf("with the only lane held: %v, want ErrBusy", err)
	}
	s.release(sess, nil)
	if _, err := s.Execute(QuerySpec{Table: "t", Distinct: true}); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

// TestJoinCapAutoSpec wires the "join_cap": "auto" capacity mode through
// the spec layer: the advisor-sized join must match an amply-capacitied
// explicit run, malformed modes and auto+max_out conflicts are ErrBadSpec,
// and the auto sentinel keys the cache distinctly from explicit bounds.
func TestJoinCapAutoSpec(t *testing.T) {
	s := serialServer(t, 1)
	mustLoad(t, s, "sales", testRows(128, 8, 21))
	mustLoad(t, s, "dim", testRows(16, 8, 22))

	explicit, err := s.Execute(QuerySpec{Table: "sales", Join: &JoinSpec{Table: "dim", MaxOut: 4096}, GroupBy: "count"})
	if err != nil {
		t.Fatal(err)
	}
	auto, err := s.Execute(QuerySpec{Table: "sales", Join: &JoinSpec{Table: "dim", JoinCap: "auto"}, GroupBy: "count"})
	if err != nil {
		t.Fatalf("join_cap auto: %v", err)
	}
	if fmt.Sprint(auto.Table.Rows()) != fmt.Sprint(explicit.Table.Rows()) {
		t.Fatalf("auto rows %v differ from explicit-capacity rows %v", auto.Table.Rows(), explicit.Table.Rows())
	}
	if !auto.Stats.Cached {
		// Second identical auto query must hit the cache under the
		// sentinel's own key.
		again, err := s.Execute(QuerySpec{Table: "sales", Join: &JoinSpec{Table: "dim", JoinCap: "auto"}, GroupBy: "count"})
		if err != nil || !again.Stats.Cached {
			t.Fatalf("repeated auto query not cached: err=%v cached=%t", err, again.Stats.Cached)
		}
	}

	if _, err := s.Execute(QuerySpec{Table: "sales", Join: &JoinSpec{Table: "dim", JoinCap: "bogus"}}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("bogus join_cap: %v, want ErrBadSpec", err)
	}
	if _, err := s.Execute(QuerySpec{Table: "sales", Join: &JoinSpec{Table: "dim", JoinCap: "auto", MaxOut: 64}}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("auto with max_out: %v, want ErrBadSpec", err)
	}
}

func TestShutdownDrains(t *testing.T) {
	s := serialServer(t, 2)
	mustLoad(t, s, "t", testRows(64, 4, 3))
	s.Shutdown()
	if _, err := s.Execute(QuerySpec{Table: "t", Distinct: true}); !errors.Is(err, ErrDraining) {
		t.Fatalf("after shutdown: %v, want ErrDraining", err)
	}
	s.Shutdown() // idempotent
}

// TestConcurrentMixedQueries is the concurrency stress test: N goroutines
// issue mixed queries (filter / group-by / join shapes) against shared
// tables through the HTTP handler; every response must equal the serial
// one-shot reference, and the lane gauge must never exceed the admission
// bound. Run with -race for the data-race leg (CI).
func TestConcurrentMixedQueries(t *testing.T) {
	const lanes = 3
	s := NewServer(Options{
		Lanes:        lanes,
		QueueTimeout: 30 * time.Second,
		Exec:         oblivmc.Config{Mode: oblivmc.ModeSerial},
	})
	defer s.Shutdown()
	mustLoad(t, s, "sales", testRows(256, 16, 11))
	mustLoad(t, s, "dim", testRows(16, 16, 12))

	specs := []QuerySpec{
		{Table: "sales", Filter: &FilterSpec{Col: -1, Op: "ge", Value: 300}, GroupBy: "sum"},
		{Table: "sales", GroupBy: "count", KeyOrderOut: true},
		{Table: "sales", Distinct: true, TopK: 6},
		{Table: "sales", Join: &JoinSpec{Table: "dim", MaxOut: 2048}, GroupBy: "count"},
		{Table: "sales", Filter: &FilterSpec{Col: 0, Op: "lt", Value: 8}, Distinct: true},
		{Table: "dim", GroupBy: "max"},
	}
	want := make([][]oblivmc.Row, len(specs))
	for i, spec := range specs {
		want[i] = refSpec(t, s, spec)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const goroutines, iters = 8, 6
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g + it) % len(specs)
				var qr QueryResponse
				b, _ := json.Marshal(specs[i])
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(b))
				if err != nil {
					errc <- err
					return
				}
				code := resp.StatusCode
				err = json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				if code != 200 || err != nil {
					errc <- fmt.Errorf("spec %d: HTTP %d, %v", i, code, err)
					return
				}
				if len(qr.Rows) != len(want[i]) {
					errc <- fmt.Errorf("spec %d: %d rows, want %d", i, len(qr.Rows), len(want[i]))
					return
				}
				for j, r := range qr.Rows {
					if r.Keys[0] != want[i][j].Key || r.Val != want[i][j].Val {
						errc <- fmt.Errorf("spec %d row %d = %v, want %v", i, j, r, want[i][j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if peak := s.PeakConcurrency(); peak > lanes {
		t.Fatalf("admission bound violated: peak %d concurrent queries over %d lanes", peak, lanes)
	}
}

// The default worker split is GOMAXPROCS/lanes; with more lanes than
// GOMAXPROCS the integer division resolves to 0, which forkjoin.NewPool
// would silently expand to a *full* GOMAXPROCS pool per lane —
// lanes×GOMAXPROCS runnable goroutines on a machine admitting lanes
// queries at once. NewServer clamps the split to one worker per lane;
// this pins the clamp and the resolved per-lane pool size.
func TestWorkerSplitClampedToOne(t *testing.T) {
	lanes := runtime.GOMAXPROCS(0) + 3
	s := NewServer(Options{
		Lanes:        lanes,
		QueueTimeout: 2 * time.Second,
		Exec:         oblivmc.Config{Mode: oblivmc.ModeParallel},
	})
	t.Cleanup(s.Shutdown)
	if got := s.WorkersPerLane(); got != 1 {
		t.Fatalf("WorkersPerLane() = %d, want 1 (lanes=%d, GOMAXPROCS=%d)", got, lanes, runtime.GOMAXPROCS(0))
	}
	for i := 0; i < lanes; i++ {
		sess := <-s.lanes
		defer func() { s.lanes <- sess }()
		if w := sess.Workers(); w != 1 {
			t.Fatalf("lane %d session Workers() = %d, want 1", i, w)
		}
	}
}

// With lanes that divide the machine evenly, the split is GOMAXPROCS/lanes
// and an explicit Workers wins over the split.
func TestWorkerSplitExplicitWins(t *testing.T) {
	s := NewServer(Options{
		Lanes:        2,
		QueueTimeout: 2 * time.Second,
		Exec:         oblivmc.Config{Mode: oblivmc.ModeParallel, Workers: 3},
	})
	t.Cleanup(s.Shutdown)
	if got := s.WorkersPerLane(); got != 3 {
		t.Fatalf("WorkersPerLane() = %d, want explicit 3", got)
	}
	sess, err := s.checkout(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.release(sess, nil)
	if w := sess.Workers(); w != 3 {
		t.Fatalf("lane session Workers() = %d, want explicit 3", w)
	}
}

// TestResultReportOnlyWhenMetered: a metered lane's cache miss carries
// the run's Report — the same one a one-shot RunQuery meters — while a
// cache hit and an unmetered lane carry none.
func TestResultReportOnlyWhenMetered(t *testing.T) {
	cfg := oblivmc.Config{Mode: oblivmc.ModeMetered, CacheM: 1 << 12, CacheB: 32, Trace: true}
	s := NewServer(Options{Lanes: 1, Exec: cfg})
	t.Cleanup(s.Shutdown)
	rows := testRows(256, 16, 3)
	mustLoad(t, s, "t", rows)
	spec := QuerySpec{Table: "t", GroupBy: "sum"}

	cold, err := s.Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := oblivmc.NewWideTable(rows)
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := oblivmc.RunQuery(cfg, tab, oblivmc.Query{GroupBy: oblivmc.AggSum})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Report == nil || *cold.Report != *want {
		t.Fatalf("metered miss Report = %+v, want the one-shot %+v", cold.Report, want)
	}
	if warm, err := s.Execute(spec); err != nil || warm.Report != nil {
		t.Fatalf("cache hit: Report = %+v err = %v, want nil", warm.Report, err)
	}

	plain := serialServer(t, 1)
	mustLoad(t, plain, "t", rows)
	if res, err := plain.Execute(spec); err != nil || res.Report != nil {
		t.Fatalf("unmetered run: Report = %+v err = %v, want nil", res.Report, err)
	}
}
