package oblivmc

// Query-lifecycle tests: cooperative cancellation (context cancel,
// deadline), panic isolation and session poisoning, the
// untripped-token trace pin, and watcher-goroutine hygiene.

import (
	"context"
	"errors"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"oblivmc/internal/faultinject"
	"oblivmc/internal/prng"
)

// lcRows builds a deterministic grouped relation sized for a few sort
// passes per query.
func lcRows(n int) []Row {
	src := prng.New(99)
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{Key: src.Uint64n(16), Val: src.Uint64n(1000)}
	}
	return rows
}

// TestCancelCtxAfterFirstSortPass cancels a query and each edge-table graph
// operator through its context once the run's first sort pass has started:
// every one must surface ErrCanceled carrying only public shape — the
// checkpoint site and the executed sort-pass count.
func TestCancelCtxAfterFirstSortPass(t *testing.T) {
	defer faultinject.Reset()
	tab := mustTable(t, lcRows(256))
	edges := mustEdgeTable(t, testEdges(7, 24, 48, 50))
	graphRun := func(op GraphOp, rounds int) func(context.Context, *Session) error {
		return func(ctx context.Context, s *Session) error {
			_, _, err := s.RunGraphCtx(ctx, edges, op, rounds)
			return err
		}
	}
	cases := []struct {
		name string
		run  func(context.Context, *Session) error
	}{
		{"query", func(ctx context.Context, s *Session) error {
			_, _, err := s.RunQueryCtx(ctx, tab, Query{GroupBy: AggSum, KeyOrderOut: true})
			return err
		}},
		{"cc", graphRun(GraphOpComponents, 4)},
		{"msf", graphRun(GraphOpMSF, 0)},
		{"pagerank", graphRun(GraphOpPageRank, 2)},
	}
	passes := regexp.MustCompile(`\(after \d+ executed sort passes\)`)
	for _, tc := range cases {
		faultinject.Reset()
		sess := NewSession(Config{Mode: ModeSerial})
		// Stretch every sort pass so the cancel lands mid-run.
		faultinject.SlowEvery("sort.pass", 1, 20*time.Millisecond)
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			for faultinject.Hits("sort.pass") == 0 && ctx.Err() == nil {
				time.Sleep(500 * time.Microsecond)
			}
			cancel()
		}()
		err := tc.run(ctx, sess)
		cancel()
		sess.Close()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s canceled after its first sort pass: err = %v, want ErrCanceled", tc.name, err)
		}
		if !strings.Contains(err.Error(), "(at ") || !passes.MatchString(err.Error()) {
			t.Fatalf("%s: canceled error %q lacks its public site or executed pass count", tc.name, err)
		}
	}
}

// TestGraphSortPassInjection arms the "sort.pass" fault site alone, with no
// sorter decorator: a Session's Components, MSF and PageRank runs each
// reach it at their first plane sort, fail typed (ErrInternal carrying the
// injected panic) and leave the session poisoned.
func TestGraphSortPassInjection(t *testing.T) {
	defer faultinject.Reset()
	edges := mustEdgeTable(t, testEdges(7, 24, 48, 50))
	for _, tc := range []struct {
		name   string
		op     GraphOp
		rounds int
	}{{"cc", GraphOpComponents, 4}, {"msf", GraphOpMSF, 0}, {"pagerank", GraphOpPageRank, 2}} {
		faultinject.Reset()
		faultinject.PanicAt("sort.pass", 1)
		sess := NewSession(Config{Mode: ModeSerial})
		_, _, err := sess.RunGraphCtx(context.Background(), edges, tc.op, tc.rounds)
		poisoned := sess.Poisoned()
		sess.Close()
		var pe *PanicError
		if !errors.Is(err, ErrInternal) || !errors.As(err, &pe) {
			t.Fatalf("%s with sort.pass armed: err = %v, want a *PanicError (ErrInternal)", tc.name, err)
		}
		if _, ok := pe.Val.(*faultinject.Injected); !ok {
			t.Fatalf("%s: PanicError.Val = %T (%v), want *faultinject.Injected", tc.name, pe.Val, pe.Val)
		}
		if !poisoned {
			t.Fatalf("%s: the session that tripped is not poisoned", tc.name)
		}
	}
}

// TestSessionCancelMidQuery cancels an in-flight query's context from
// another goroutine: the query returns ErrCanceled, and — cancellation does
// not poison — the same session then runs the query to completion.
func TestSessionCancelMidQuery(t *testing.T) {
	defer faultinject.Reset()
	sess := NewSession(Config{Mode: ModeSerial})
	defer sess.Close()
	tab := mustTable(t, lcRows(256))
	q := Query{GroupBy: AggSum, KeyOrderOut: true}

	// Stretch every sort pass so the cancel lands mid-query.
	faultinject.SlowEvery("sort.pass", 1, 30*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for faultinject.Hits("sort.pass") == 0 {
			time.Sleep(500 * time.Microsecond)
		}
		cancel()
	}()
	_, _, err := sess.RunQueryCtx(ctx, tab, q)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled query: err = %v, want ErrCanceled", err)
	}
	if errors.Is(err, ErrDeadline) {
		t.Fatalf("cancel misreported as deadline: %v", err)
	}
	if sess.Poisoned() {
		t.Fatal("cooperative cancellation must not poison the session")
	}

	faultinject.Reset()
	out, _, err := sess.RunQuery(tab, q)
	if err != nil {
		t.Fatalf("query after cancel: %v", err)
	}
	want := keySorted(refQuery(tab.Rows(), Query{GroupBy: AggSum}))
	got := out.Rows()
	if len(got) != len(want) {
		t.Fatalf("post-cancel rows: %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-cancel row %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestRunQueryCtxDeadline expires a context deadline mid-query: the abort
// must surface as ErrDeadline (matchable), carrying the public pass count.
func TestRunQueryCtxDeadline(t *testing.T) {
	defer faultinject.Reset()
	sess := NewSession(Config{Mode: ModeSerial})
	defer sess.Close()
	tab := mustTable(t, lcRows(256))

	faultinject.SlowEvery("sort.pass", 1, 40*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, err := sess.RunQueryCtx(ctx, tab, Query{GroupBy: AggSum, KeyOrderOut: true})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("deadline query: err = %v, want ErrDeadline", err)
	}
	if sess.Poisoned() {
		t.Fatal("deadline abort must not poison the session")
	}

	// An already-expired context must fail before executing anything.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	_, _, err = sess.RunQueryCtx(done, tab, Query{Distinct: true})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled ctx: err = %v, want ErrCanceled", err)
	}
}

// TestPanicPoisonsSession injects a panic into a sort pass: the query
// fails typed (ErrInternal via *PanicError), the session reports itself
// poisoned and refuses the next query; a rebuilt session works.
func TestPanicPoisonsSession(t *testing.T) {
	defer faultinject.Reset()
	sess := NewSession(Config{Mode: ModeSerial})
	defer sess.Close()
	tab := mustTable(t, lcRows(128))
	q := Query{GroupBy: AggCount}

	faultinject.PanicAt("sort.pass", 1)
	_, _, err := sess.RunQuery(tab, q)
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("injected panic: err = %v, want ErrInternal", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("injected panic: err %T, want *PanicError", err)
	}
	if _, ok := pe.Val.(*faultinject.Injected); !ok {
		t.Fatalf("PanicError.Val = %T (%v), want *faultinject.Injected", pe.Val, pe.Val)
	}
	if !sess.Poisoned() {
		t.Fatal("session must report poisoned after a panic")
	}
	faultinject.Reset()
	if _, _, err := sess.RunQuery(tab, q); !errors.Is(err, ErrInternal) {
		t.Fatalf("poisoned session accepted a query (err = %v)", err)
	}

	fresh := NewSession(Config{Mode: ModeSerial})
	defer fresh.Close()
	if _, _, err := fresh.RunQuery(tab, q); err != nil {
		t.Fatalf("rebuilt session: %v", err)
	}
}

// TestPanicTypedOnParallelPool routes an injected panic through the
// work-stealing executor: the panic must quiesce the pool, surface typed,
// and leave the (rebuilt) path healthy under the same process.
func TestPanicTypedOnParallelPool(t *testing.T) {
	defer faultinject.Reset()
	sess := NewSession(Config{Mode: ModeParallel, Workers: 4})
	defer sess.Close()
	tab := mustTable(t, lcRows(256))

	faultinject.PanicAt("sort.pass", 1)
	_, _, err := sess.RunQuery(tab, Query{GroupBy: AggSum})
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("parallel injected panic: err = %v, want ErrInternal", err)
	}
	faultinject.Reset()

	fresh := NewSession(Config{Mode: ModeParallel, Workers: 4})
	defer fresh.Close()
	if _, _, err := fresh.RunQuery(tab, Query{GroupBy: AggSum}); err != nil {
		t.Fatalf("fresh parallel session after panic: %v", err)
	}
}

// TestUntrippedTokenLeavesTraceIdentical is the cancellation-leakage pin:
// a Session run always arms a per-run token, and a cancelable context adds
// the watcher; neither may move the metered trace (work, span,
// access-pattern fingerprint) off the token-free package-level call's,
// across a fused query and the graph operators.
func TestUntrippedTokenLeavesTraceIdentical(t *testing.T) {
	cfg := Config{Mode: ModeMetered, Trace: true, Seed: 11, DeterministicShuffle: true}
	tab := mustTable(t, lcRows(512))
	edges := mustEdgeTable(t, testEdges(19, 12, 16, 50))
	q := Query{Filter: func(r Row) bool { return r.Val%3 != 0 }, Distinct: true, GroupBy: AggSum, TopK: 5}
	cases := []struct {
		name    string
		oneShot func() (*Report, error)
		session func(context.Context, *Session) (QueryStats, error)
	}{
		{"query", func() (*Report, error) {
			_, rep, err := RunQuery(cfg, tab, q)
			return rep, err
		}, func(ctx context.Context, s *Session) (QueryStats, error) {
			_, stats, err := s.RunQueryCtx(ctx, tab, q)
			return stats, err
		}},
		{"components", func() (*Report, error) {
			_, rep, err := Components(cfg, edges, 2)
			return rep, err
		}, func(ctx context.Context, s *Session) (QueryStats, error) {
			_, stats, err := s.RunGraphCtx(ctx, edges, GraphOpComponents, 2)
			return stats, err
		}},
		{"pagerank", func() (*Report, error) {
			_, rep, err := PageRank(cfg, edges, 2)
			return rep, err
		}, func(ctx context.Context, s *Session) (QueryStats, error) {
			_, stats, err := s.RunGraphCtx(ctx, edges, GraphOpPageRank, 2)
			return stats, err
		}},
	}
	for _, tc := range cases {
		want, err := tc.oneShot()
		if err != nil {
			t.Fatal(err)
		}
		sess := NewSession(cfg)
		ctx, cancel := context.WithCancel(context.Background())
		stats, err := tc.session(ctx, sess)
		cancel()
		sess.Close()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Report == nil || *stats.Report != *want {
			t.Fatalf("%s: armed token changed the metered report: %+v vs %+v", tc.name, stats.Report, want)
		}
	}
}

// TestCtxWatcherNoGoroutineLeak runs many context-carrying queries and
// requires the watcher goroutines to drain afterwards.
func TestCtxWatcherNoGoroutineLeak(t *testing.T) {
	sess := NewSession(Config{Mode: ModeSerial})
	defer sess.Close()
	tab := mustTable(t, lcRows(64))
	before := runtime.NumGoroutine()
	for i := 0; i < 30; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		if _, _, err := sess.RunQueryCtx(ctx, tab, Query{GroupBy: AggSum}); err != nil {
			t.Fatal(err)
		}
		cancel()
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after 30 ctx queries", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
