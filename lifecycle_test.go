package oblivmc

// Query-lifecycle tests: cooperative cancellation (token, Interrupt,
// context deadline), panic isolation and session poisoning, the
// untripped-token trace pin, and watcher-goroutine hygiene.

import (
	"context"
	"errors"
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

// TestCancelTokenPreTripped aborts one-shot surfaces at their first
// checkpoint: a tripped Config.Cancel must surface ErrCanceled (with a
// public site, never data) from every layer of the pipeline.
func TestCancelTokenPreTripped(t *testing.T) {
	keys := make([]uint64, 256)
	src := prng.New(5)
	for i := range keys {
		keys[i] = src.Uint64() >> 2 // keys must stay below 2^62
	}
	tripped := NewCancel()
	tripped.Cancel()
	cfg := Config{Mode: ModeSerial, Cancel: tripped}

	cases := []struct {
		name string
		run  func() error
	}{
		{"Sort", func() error { _, _, err := Sort(cfg, keys); return err }},
		{"Shuffle", func() error { _, _, err := Shuffle(cfg, keys); return err }},
		{"GroupTotals", func() error {
			_, _, err := GroupTotals(cfg, []uint64{1, 2, 1, 2}, []uint64{10, 20, 30, 40})
			return err
		}},
		{"ConnectedComponents", func() error {
			_, _, err := ConnectedComponents(cfg, 8, [][2]int{{0, 1}, {2, 3}, {4, 5}})
			return err
		}},
		{"ListRank", func() error {
			_, _, err := ListRank(cfg, []int{1, 2, 3, 3}, nil)
			return err
		}},
	}
	for _, tc := range cases {
		err := tc.run()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s with tripped token: err = %v, want ErrCanceled", tc.name, err)
		}
		if !strings.Contains(err.Error(), "(at ") {
			t.Fatalf("%s: canceled error %q carries no public site", tc.name, err)
		}
	}
}

// TestSessionInterrupt interrupts an in-flight query from another
// goroutine: the query returns ErrCanceled, and — cancellation does not
// poison — the same session then runs the query to completion.
func TestSessionInterrupt(t *testing.T) {
	defer faultinject.Reset()
	sess := NewSession(Config{Mode: ModeSerial})
	defer sess.Close()
	tab := mustTable(t, lcRows(256))
	q := Query{GroupBy: AggSum, KeyOrderOut: true}

	// Stretch every sort pass so the interrupt lands mid-query.
	faultinject.SlowEvery("sort.pass", 1, 30*time.Millisecond)
	go func() {
		for faultinject.Hits("sort.pass") == 0 {
			time.Sleep(500 * time.Microsecond)
		}
		sess.Interrupt()
	}()
	_, _, err := sess.RunQuery(tab, q)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("interrupted query: err = %v, want ErrCanceled", err)
	}
	if errors.Is(err, ErrDeadline) {
		t.Fatalf("interrupt misreported as deadline: %v", err)
	}
	if sess.Poisoned() {
		t.Fatal("cooperative cancellation must not poison the session")
	}

	faultinject.Reset()
	out, _, err := sess.RunQuery(tab, q)
	if err != nil {
		t.Fatalf("query after interrupt: %v", err)
	}
	want := keySorted(refQuery(tab.Rows(), Query{GroupBy: AggSum}))
	got := out.Rows()
	if len(got) != len(want) {
		t.Fatalf("post-interrupt rows: %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-interrupt row %d = %v, want %v", i, got[i], want[i])
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
// arming a token that never trips must leave the metered trace (work,
// span, access-pattern fingerprint) byte-identical to a run with no
// token, across the sort pipeline and a graph operator.
func TestUntrippedTokenLeavesTraceIdentical(t *testing.T) {
	cfg := Config{Mode: ModeMetered, Trace: true, Seed: 11}
	keys := make([]uint64, 512)
	src := prng.New(17)
	for i := range keys {
		keys[i] = src.Uint64() >> 2 // keys must stay below 2^62
	}

	_, repA, err := Sort(cfg, keys)
	if err != nil {
		t.Fatal(err)
	}
	cfgTok := cfg
	cfgTok.Cancel = NewCancel()
	_, repB, err := Sort(cfgTok, keys)
	if err != nil {
		t.Fatal(err)
	}
	if repA.Work != repB.Work || repA.Span != repB.Span || repA.MemOps != repB.MemOps {
		t.Fatalf("token changed sort metrics: %+v vs %+v", repA, repB)
	}
	if !repA.TraceFingerprint.Equal(repB.TraceFingerprint) {
		t.Fatal("untripped token changed the sort trace fingerprint")
	}

	edges := [][2]int{{0, 1}, {1, 2}, {3, 4}, {5, 6}, {6, 7}}
	_, gA, err := ConnectedComponents(cfg, 8, edges)
	if err != nil {
		t.Fatal(err)
	}
	_, gB, err := ConnectedComponents(cfgTok, 8, edges)
	if err != nil {
		t.Fatal(err)
	}
	if gA.Work != gB.Work || gA.Span != gB.Span || !gA.TraceFingerprint.Equal(gB.TraceFingerprint) {
		t.Fatal("untripped token changed the components trace")
	}

	// A session always arms a per-run token, and a cancelable context adds
	// the watcher: neither may move the trace off the token-free one-shot's.
	tab := mustEdgeTable(t, testEdges(19, 12, 16, 50))
	_, sA, err := Components(cfg, tab, 2)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(cfg)
	defer sess.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, stats, err := sess.RunGraphCtx(ctx, tab, GraphOpComponents, 2)
	if err != nil {
		t.Fatal(err)
	}
	if *stats.Report != *sA {
		t.Fatalf("session token changed the components trace: %+v vs %+v", stats.Report, sA)
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
