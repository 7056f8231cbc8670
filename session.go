package oblivmc

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/plan"
	"oblivmc/internal/relops"
)

// exec is the execution environment an operator — relational or graph —
// runs under: the executor config, the work-stealing pool (ModeParallel
// only), the address space, the relational scratch arena and the run's one
// sorter. Only Session.exec builds one, so a package-level call (a
// throwaway Session, oneShot) and a Session run get the same environment.
type exec struct {
	cfg  Config
	pool *forkjoin.Pool
	// sp is kept stable across runs, which is what makes the arena and
	// sorter scratch caches effective: both drop their arrays when the
	// requesting space changes.
	sp    *mem.Space
	arena *relops.Arena
	// srt is the run's one sorter: the shuffle backend is stateful, so
	// every sort of a run must go through the same instance.
	srt obliv.ScheduledSorter
	// cancel is the run's cancellation token: a fresh one per Session run,
	// nil for a package-level call.
	cancel *forkjoin.Cancel
}

// oneShot is the environment of a package-level call: a throwaway
// Session's, released by the returned func once the call is done. It runs
// on the session's sorter without runOn's token, so it counts no passes.
func oneShot(cfg Config) (exec, func()) {
	s := NewSession(cfg)
	return s.exec(), s.Close
}

// run executes fn under e's executor. It is the lifecycle boundary: a
// tripped cancellation token surfaces as ErrCanceled (carrying only the
// public checkpoint site), and any other panic out of the computation —
// which has fully quiesced by the time it unwinds here, so the pool stays
// structurally reusable — converts to a *PanicError wrapping ErrInternal.
func (e exec) run(fn func(c *forkjoin.Ctx, sp *mem.Space)) (rep *Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep = nil
			switch p := r.(type) {
			case *forkjoin.CanceledError:
				err = fmt.Errorf("%w (at %s)", ErrCanceled, p.Site)
			case *forkjoin.TaskPanic:
				err = &PanicError{Val: p.Val, Stack: p.Stack}
			default:
				err = &PanicError{Val: r, Stack: debug.Stack()}
			}
		}
	}()
	switch e.cfg.Mode {
	case ModeMetered:
		m := forkjoin.RunMetered(forkjoin.MeterOpts{
			CacheM: e.cfg.CacheM, CacheB: e.cfg.CacheB, EnableTrace: e.cfg.Trace,
			Cancel: e.cancel,
		}, func(c *forkjoin.Ctx) { fn(c, e.sp) })
		return reportOf(m), nil
	case ModeParallel:
		e.pool.RunCancel(e.cancel, func(c *forkjoin.Ctx) { fn(c, e.sp) })
		return nil, nil
	default:
		fn(forkjoin.SerialCancel(e.cancel), e.sp)
		return nil, nil
	}
}

// QueryStats is the public bookkeeping of one Session run (RunQuery or
// RunGraphCtx): the executed sort-pass count (counted where each pass
// starts, on the run's token — not planned), the cold-plan baseline the
// cross-query savings are measured against, and the rendered plan. Everything here is a function of public
// query shape — plus, for the graph operators' revealed loops (a
// convergence Components, MSF), the round count they reveal by design.
type QueryStats struct {
	// SortPasses counts the full sort passes the run executed — each
	// relational sort and each PRAM word-plane sort, counted at its start
	// (forkjoin.Ctx.SortPass) — 0 for an identity plan or a fully
	// order-covered one.
	SortPasses int
	// ColdSortPasses is what the same query plans with no input order
	// token — the baseline a token-covered query beats. Graph operators
	// read no token, so for them it equals SortPasses.
	ColdSortPasses int
	// Plan is the rendered physical pass sequence (order-aware, e.g.
	// "in(key,pos) → aggregate [0 sorts, cold 1, staged 2]").
	Plan string
	// Order is the result table's sorted-by token.
	Order TableOrder
	// Report carries the metered metrics when the session runs
	// ModeMetered (nil otherwise).
	Report *Report
}

// Session is a reusable execution context for the table operators — queries
// (RunQuery) and the edge-table graph operators (RunGraphCtx) — the seam a
// long-running server (internal/serve, cmd/oblivserve) multiplexes requests
// over. It owns the one execution environment the module builds: a
// fork-join pool, address space, scratch arena and sorter, constructed once
// and reused across runs. A package-level call runs in a throwaway Session
// (oneShot); a long-lived one keeps the arena's key schedules and element
// scratch, the shuffle backend's tie planes and Beneš level buffers, and the
// pool's worker goroutines, so a steady stream of same-shape queries runs
// allocation-flat.
//
// A Session is NOT safe for concurrent use: queries must be issued
// sequentially (the shuffle sorter and arena are stateful). A server gives
// each admission lane its own Session. A run is canceled only through the
// context of RunQueryCtx / RunGraphCtx, and a canceled session stays
// reusable. Close releases the pool's workers; a closed session must not
// run further queries.
//
// Obliviousness is unchanged from the package-level calls: resource reuse
// follows the public sequence of (relation size, query shape) pairs only,
// and the cross-query order tokens a Session feeds back into the planner
// are themselves functions of prior public shapes.
type Session struct {
	cfg    Config
	pool   *forkjoin.Pool
	sp     *mem.Space
	arena  *relops.Arena
	srt    obliv.ScheduledSorter
	closed bool

	// poisoned is set when a query panicked out of the execution: the
	// arena and sorter state are suspect, so the session refuses further
	// queries until rebuilt. (A cooperative cancellation does NOT poison:
	// every pass rewrites its scratch from the freshly loaded relation, so
	// an aborted pass leaves no state the next run reads.)
	poisoned atomic.Bool
}

// NewSession creates a session executing under cfg. In ModeParallel (the
// default) it owns a long-lived work-stealing pool of cfg.Workers workers
// (GOMAXPROCS when zero); call Close to release it.
func NewSession(cfg Config) *Session {
	// The one place a sorter is resolved: the shuffle backend is stateful,
	// and its caches — tie planes, Beneš level buffers — are what make
	// cross-request pooling worthwhile (the bitonic backend is stateless).
	s := &Session{cfg: cfg, sp: mem.NewSpace(), arena: relops.NewArena(), srt: relSorter(cfg)}
	if cfg.Mode == ModeParallel {
		s.pool = forkjoin.NewPool(cfg.Workers)
	}
	return s
}

// Workers returns the session pool's size (cfg.Workers resolved; 1 outside
// ModeParallel).
func (s *Session) Workers() int {
	if s.pool != nil {
		return s.pool.Workers()
	}
	return 1
}

// Close releases the session's pool workers. The session must be idle.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.pool != nil {
		s.pool.Close()
	}
}

// exec assembles the session's execution environment — the only place an
// exec is built.
func (s *Session) exec() exec {
	return exec{cfg: s.cfg, pool: s.pool, sp: s.sp, arena: s.arena, srt: s.srt}
}

// Poisoned reports whether a prior query panicked out of this session's
// execution, leaving its arena/sorter state suspect. A poisoned session
// refuses further queries with ErrInternal; close it and build a fresh one.
func (s *Session) Poisoned() bool { return s.poisoned.Load() }

// RunQuery executes q over t exactly like the package-level RunQuery, but
// under the session's pooled resources, and returns the executed sort-pass
// stats alongside the result. The input table's sorted-by token feeds the
// planner (the cross-query skip); the result carries its own token for the
// next query.
func (s *Session) RunQuery(t Table, q Query) (Table, QueryStats, error) {
	return s.RunQueryCtx(context.Background(), t, q)
}

// RunQueryCtx is RunQuery under a context: cancellation and deadlines
// propagate into the execution at its public-shape checkpoints (between
// sort passes, network layers, scan sweeps), returning ErrCanceled or
// ErrDeadline. The abort reveals only public quantities — the checkpoint
// site and the executed sort-pass count — never data.
func (s *Session) RunQueryCtx(ctx context.Context, t Table, q Query) (Table, QueryStats, error) {
	out, stats, pl, err := runOn(ctx, s, func(e exec) (Table, *Report, plan.Plan, error) {
		return runQuery(e, t, q)
	})
	stats.ColdSortPasses = pl.ColdSortPasses
	return out, stats, err
}

// RunGraphCtx runs a graph operator (GraphOpComponents, GraphOpMSF,
// GraphOpPageRank — the ones with an edge-table form; rounds as in
// GraphExplain) over the edge table t exactly like the package-level
// Components / MSF / PageRank, but under the session's pooled resources and
// the RunQueryCtx lifecycle: the operator's one kernel run uses the
// session's pool, space and sorter, and ctx cancels it.
// SortPasses is the executed count (graph results carry no order token, so
// ColdSortPasses equals it) and Plan the GraphExplainTable rendering.
func (s *Session) RunGraphCtx(ctx context.Context, t Table, op GraphOp, rounds int) (Table, QueryStats, error) {
	out, stats, _, err := runOn(ctx, s, func(e exec) (Table, *Report, plan.GraphPlan, error) {
		return runGraph(e, t, op, rounds)
	})
	stats.ColdSortPasses = stats.SortPasses
	return out, stats, err
}

// runOn is the lifecycle of one session run, shared by every operator kind
// (P is the kind's plan type): refuse a closed or poisoned session and an
// already-done context, arm a fresh per-run token that ctx trips and that
// counts the run's sort passes, hand op the session's environment, poison
// the session when op panicked out of the execution, and stamp a canceled
// run with the executed pass count. The stats it returns carry everything
// but the cold baseline, which only the caller's plan knows.
func runOn[P fmt.Stringer](ctx context.Context, s *Session, op func(e exec) (Table, *Report, P, error)) (Table, QueryStats, P, error) {
	fail := func(err error) (Table, QueryStats, P, error) {
		var noPlan P
		return Table{}, QueryStats{}, noPlan, err
	}
	if s.closed {
		return fail(fmt.Errorf("oblivmc: run on closed Session"))
	}
	if s.poisoned.Load() {
		return fail(fmt.Errorf("%w (session poisoned by a prior panic; rebuild it)", ErrInternal))
	}
	if ctx != nil && ctx.Err() != nil {
		return fail(ctxErrOf(ctx, fmt.Errorf("%w (before execution)", ErrCanceled)))
	}
	cn := new(forkjoin.Cancel)
	if ctx != nil {
		defer context.AfterFunc(ctx, cn.Cancel)()
	}
	e := s.exec()
	e.cancel = cn
	out, rep, pl, err := op(e)
	if err != nil {
		if errors.Is(err, ErrInternal) {
			s.poisoned.Store(true)
		}
		if errors.Is(err, ErrCanceled) {
			// The executed pass count is public shape, like the site.
			err = fmt.Errorf("%w (after %d executed sort passes)", ctxErrOf(ctx, err), cn.SortPasses())
		}
		return fail(err)
	}
	return out, QueryStats{SortPasses: cn.SortPasses(), Plan: pl.String(), Order: out.order, Report: rep}, pl, nil
}
