package serve

// Chaos tests: a storm of concurrent queries under injected panics, slow
// passes, random client cancellations, and tight admission — the server
// must keep every failure typed, leak no lanes (running gauge returns to
// zero), retire-and-rebuild panicked lanes, and keep serving (cache
// included) once the faults stop. Run with -race; the faultinject
// registry is process-global, so these tests must not t.Parallel().

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oblivmc"
	"oblivmc/internal/faultinject"
)

// chaosServer is a small serial server with a short admission queue so
// the storm also exercises ErrBusy.
func chaosServer(t *testing.T, lanes int, queryTimeout time.Duration) *Server {
	t.Helper()
	s := NewServer(Options{
		Lanes:        lanes,
		QueueTimeout: 50 * time.Millisecond,
		QueryTimeout: queryTimeout,
		Exec:         oblivmc.Config{Mode: oblivmc.ModeSerial},
	})
	t.Cleanup(s.Shutdown)
	return s
}

// lifecycleSpecs is what the timeout, disconnect and panic tests each
// drive: one relational spec and one graph spec (over tables "t" and "g"),
// which take the same path through ExecuteCtx and must fail — and recover —
// the same way. Each is armed at a fault site it crosses: the relational
// pipeline at every sort pass, the PageRank kernel at every round.
var lifecycleSpecs = []struct {
	QuerySpec
	site string
}{
	{QuerySpec{Table: "t", GroupBy: "sum", KeyOrderOut: true}, "sort.pass"},
	{QuerySpec{Table: "g", Graph: "pagerank"}, "graph.round"},
}

// TestChaosStorm is the acceptance chaos run: >= 50 concurrent mixed
// queries against a 2-lane server while a panic rule fires on every 9th
// sort pass and every 9th graph round, a slow rule stretches every 4th of
// each, and a third of the clients cancel their contexts early.
// Afterwards: no lane leaked, every error was typed, and with the faults
// cleared the server still executes and caches.
func TestChaosStorm(t *testing.T) {
	defer faultinject.Reset()
	s := chaosServer(t, 2, 0)
	mustLoad(t, s, "sales", testRows(256, 16, 21))
	mustLoad(t, s, "edges2", testRows(128, 32, 22))
	mustLoad(t, s, "g", ringEdges(16))

	faultinject.PanicEvery("sort.pass", 9)
	faultinject.SlowEvery("sort.pass", 4, 2*time.Millisecond)
	faultinject.PanicEvery("graph.round", 9)
	faultinject.SlowEvery("graph.round", 4, 2*time.Millisecond)

	specs := []QuerySpec{
		{Table: "sales", GroupBy: "sum"},
		{Table: "sales", GroupBy: "count", KeyOrderOut: true},
		{Table: "sales", Distinct: true},
		{Table: "sales", GroupBy: "max", TopK: 3},
		{Table: "sales", Filter: &FilterSpec{Col: 0, Op: "lt", Value: 8}, GroupBy: "sum"},
		{Table: "g", Graph: "pagerank", GraphRounds: 2},
	}

	const queries = 60
	var (
		wg                                    sync.WaitGroup
		okN, busyN, canceledN, internalN, oth atomic.Int64
	)
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if i%3 == 0 {
				// A third of the clients walk away at a random moment.
				go func(d time.Duration) {
					time.Sleep(d)
					cancel()
				}(time.Duration(rng.Intn(4)) * time.Millisecond)
			}
			_, err := s.ExecuteCtx(ctx, specs[i%len(specs)])
			switch {
			case err == nil:
				okN.Add(1)
			case errors.Is(err, ErrBusy):
				busyN.Add(1)
			case errors.Is(err, oblivmc.ErrCanceled), errors.Is(err, oblivmc.ErrDeadline):
				canceledN.Add(1)
			case errors.Is(err, oblivmc.ErrInternal):
				internalN.Add(1)
			default:
				oth.Add(1)
				t.Errorf("untyped chaos error: %v", err)
			}
		}(i)
	}
	wg.Wait()

	if n := oth.Load(); n != 0 {
		t.Fatalf("%d untyped errors escaped the lifecycle boundary", n)
	}
	if got := s.Running(); got != 0 {
		t.Fatalf("running gauge = %d after the storm, want 0 (leaked lane)", got)
	}
	if got := s.PeakConcurrency(); got > s.Lanes() {
		t.Fatalf("peak concurrency %d exceeded %d lanes", got, s.Lanes())
	}
	t.Logf("chaos: ok=%d busy=%d canceled=%d internal=%d",
		okN.Load(), busyN.Load(), canceledN.Load(), internalN.Load())

	// Faults off: the server (with any panicked lanes rebuilt) must still
	// execute, and the second identical query must hit the cache.
	faultinject.Reset()
	spec := QuerySpec{Table: "sales", GroupBy: "min"}
	if _, err := s.Execute(spec); err != nil {
		t.Fatalf("post-chaos execution: %v", err)
	}
	warm, err := s.Execute(spec)
	if err != nil {
		t.Fatalf("post-chaos repeat: %v", err)
	}
	if !warm.Stats.Cached {
		t.Fatal("post-chaos repeat was not served from the cache")
	}
}

// TestQueryTimeoutReturns504 pins the deadline path: a query slower than
// Options.QueryTimeout aborts with oblivmc.ErrDeadline, mapped to HTTP
// 504, and returns its lane.
//
// The two constants move together. The slowed first hit of the spec's
// fault site alone outlasts the timeout, so the slowed run must miss its
// deadline; the un-slowed recovery run of the 5-round PageRank spec must
// fit well inside it under -race on a 2-CPU machine. (When PageRank was
// composed of relational runs, that run took 30–37 ms there, and at 25 ms
// and 40 ms timeouts it hit the deadline itself.)
func TestQueryTimeoutReturns504(t *testing.T) {
	const (
		timeout = 150 * time.Millisecond
		slow    = 250 * time.Millisecond
	)
	defer faultinject.Reset()
	s := chaosServer(t, 1, timeout)
	mustLoad(t, s, "t", testRows(256, 8, 3))
	mustLoad(t, s, "g", ringEdges(16))

	for _, tc := range lifecycleSpecs {
		spec := tc.QuerySpec
		faultinject.SlowEvery(tc.site, 1, slow)
		_, err := s.Execute(spec)
		if !errors.Is(err, oblivmc.ErrDeadline) {
			t.Fatalf("slow %+v: err = %v, want ErrDeadline", spec, err)
		}
		if !strings.Contains(err.Error(), "(at ") {
			t.Fatalf("deadline error %q names no public checkpoint site", err)
		}
		if got := statusOf(err); got != http.StatusGatewayTimeout {
			t.Fatalf("statusOf(ErrDeadline) = %d, want 504", got)
		}
		if s.Running() != 0 {
			t.Fatalf("running gauge = %d after timeout, want 0", s.Running())
		}
		faultinject.Reset()
		// Same lane, same session: the abort poisoned nothing.
		if res, err := s.Execute(spec); err != nil || res.Stats.Cached {
			t.Fatalf("%+v after its timeout: err = %v, cached = %t", spec, err, res.Stats.Cached)
		}
	}
}

// TestLaneRetiredAfterPanic pins panic isolation at the serve layer: the
// injected panic surfaces as ErrInternal (HTTP 500), the poisoned lane is
// replaced, and the single-lane server keeps serving.
func TestLaneRetiredAfterPanic(t *testing.T) {
	defer faultinject.Reset()
	s := chaosServer(t, 1, 0)
	mustLoad(t, s, "t", testRows(128, 8, 4))
	mustLoad(t, s, "g", ringEdges(16))

	// idle peeks at the single lane's idle session.
	idle := func() *oblivmc.Session {
		sess := <-s.lanes
		s.lanes <- sess
		return sess
	}
	for _, tc := range lifecycleSpecs {
		spec := tc.QuerySpec
		panicked := idle()
		faultinject.PanicAt(tc.site, 1)
		_, err := s.Execute(spec)
		if !errors.Is(err, oblivmc.ErrInternal) {
			t.Fatalf("injected panic in %+v: err = %v, want ErrInternal", spec, err)
		}
		if got := statusOf(err); got != http.StatusInternalServerError {
			t.Fatalf("statusOf(ErrInternal) = %d, want 500", got)
		}
		if s.Running() != 0 {
			t.Fatalf("running gauge = %d after panic, want 0", s.Running())
		}
		if idle() == panicked || !panicked.Poisoned() {
			t.Fatalf("%+v: the lane that panicked was not retired", spec)
		}
		faultinject.Reset()
		// The only lane panicked; this succeeds only if it was rebuilt.
		res, err := s.Execute(spec)
		if err != nil {
			t.Fatalf("%+v on rebuilt lane: %v", spec, err)
		}
		if res.Stats.Cached {
			t.Fatal("rebuilt-lane query unexpectedly cached")
		}
	}
}

// TestShutdownDrainCancelsStragglers pins graceful degradation: a drain
// deadline cancels still-running queries (their callers see ErrCanceled),
// later arrivals get ErrDraining (503), and ShutdownDrain reports the
// straggler count.
func TestShutdownDrainCancelsStragglers(t *testing.T) {
	defer faultinject.Reset()
	s := NewServer(Options{
		Lanes:        1,
		QueueTimeout: time.Second,
		Exec:         oblivmc.Config{Mode: oblivmc.ModeSerial},
	})
	mustLoad(t, s, "t", testRows(256, 8, 5))

	faultinject.SlowEvery("sort.pass", 1, 50*time.Millisecond)
	errc := make(chan error, 1)
	go func() {
		_, err := s.Execute(QuerySpec{Table: "t", GroupBy: "sum", KeyOrderOut: true})
		errc <- err
	}()
	for s.Running() == 0 {
		time.Sleep(time.Millisecond)
	}
	canceled := s.ShutdownDrain(10 * time.Millisecond)
	if canceled != 1 {
		t.Fatalf("ShutdownDrain canceled %d stragglers, want 1", canceled)
	}
	if err := <-errc; !errors.Is(err, oblivmc.ErrCanceled) {
		t.Fatalf("straggler error = %v, want ErrCanceled", err)
	}
	if _, err := s.Execute(QuerySpec{Table: "t", GroupBy: "sum"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain query: err = %v, want ErrDraining", err)
	}
	if got := statusOf(ErrDraining); got != http.StatusServiceUnavailable {
		t.Fatalf("statusOf(ErrDraining) = %d, want 503", got)
	}
	if got := statusOf(ErrBusy); got != http.StatusTooManyRequests {
		t.Fatalf("statusOf(ErrBusy) = %d, want 429", got)
	}
}

// TestShutdownDrainCancelsQueuedStraggler pins that a straggler still
// queued for a lane counts and is canceled like a running one: with one
// lane held by a slow query and a second query waiting for it, the drain
// deadline cancels both, and the queued caller learns it never ran.
func TestShutdownDrainCancelsQueuedStraggler(t *testing.T) {
	defer faultinject.Reset()
	s := NewServer(Options{
		Lanes:        1,
		QueueTimeout: 5 * time.Second,
		Exec:         oblivmc.Config{Mode: oblivmc.ModeSerial},
	})
	mustLoad(t, s, "t", testRows(256, 8, 5))

	faultinject.SlowEvery("sort.pass", 1, 200*time.Millisecond)
	running, queued := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := s.Execute(QuerySpec{Table: "t", GroupBy: "sum", KeyOrderOut: true})
		running <- err
	}()
	for s.Running() == 0 {
		time.Sleep(time.Millisecond)
	}
	go func() {
		_, err := s.Execute(QuerySpec{Table: "t", GroupBy: "max"})
		queued <- err
	}()
	for s.pending.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	if canceled := s.ShutdownDrain(10 * time.Millisecond); canceled != 2 {
		t.Fatalf("ShutdownDrain canceled %d stragglers, want 2 (one running, one queued)", canceled)
	}
	if err := <-running; !errors.Is(err, oblivmc.ErrCanceled) {
		t.Fatalf("running straggler error = %v, want ErrCanceled", err)
	}
	if err := <-queued; !errors.Is(err, oblivmc.ErrCanceled) || !strings.Contains(err.Error(), "while queued for a lane") {
		t.Fatalf("queued straggler error = %v, want ErrCanceled while queued for a lane", err)
	}
}

// TestClientDisconnectCancelsQuery drives cancellation through the HTTP
// handler's request context path via ExecuteCtx directly.
func TestClientDisconnectCancelsQuery(t *testing.T) {
	defer faultinject.Reset()
	s := chaosServer(t, 1, 0)
	mustLoad(t, s, "t", testRows(256, 8, 6))
	mustLoad(t, s, "g", ringEdges(16))

	for _, tc := range lifecycleSpecs {
		spec := tc.QuerySpec
		faultinject.Reset()
		faultinject.SlowEvery(tc.site, 1, 40*time.Millisecond)
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			for faultinject.Hits(tc.site) == 0 {
				time.Sleep(500 * time.Microsecond)
			}
			cancel()
		}()
		_, err := s.ExecuteCtx(ctx, spec)
		if !errors.Is(err, oblivmc.ErrCanceled) {
			t.Fatalf("disconnected %+v: err = %v, want ErrCanceled", spec, err)
		}
		if got := statusOf(err); got != 499 {
			t.Fatalf("statusOf(ErrCanceled) = %d, want 499", got)
		}
		if s.Running() != 0 {
			t.Fatalf("running gauge = %d after disconnect, want 0", s.Running())
		}
	}
}
