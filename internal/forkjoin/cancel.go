package forkjoin

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"oblivmc/internal/faultinject"
)

// stackTrace captures the panicking goroutine's stack. Called only inside
// a recovering defer, where the panicking frames are still live.
func stackTrace() []byte { return debug.Stack() }

// Cancel is a cooperative cancellation token threaded through an execution
// via Ctx. Tripping it (Cancel) makes the next Check call on any worker
// panic with *CanceledError; the panic unwinds level by level through Fork
// (each frame joins its forked sibling before re-panicking), so when it
// reaches the Run boundary the computation has fully quiesced — full
// strictness holds even for an aborted run.
//
// Obliviousness: Check performs one uninstrumented atomic load and is
// placed only at public-shape points (between sort passes, network layers,
// graph rounds), so an execution whose token never trips has an access
// pattern byte-identical to one with no token at all, and an abort reveals
// only the public site name of the pass that observed it. The token also
// counts the run's sort passes (Ctx.SortPass), a public quantity the
// canceled error and the run's stats report.
type Cancel struct {
	flag   atomic.Bool
	passes atomic.Int64
}

// Cancel trips the token. Safe to call from any goroutine, repeatedly.
func (cn *Cancel) Cancel() { cn.flag.Store(true) }

// Canceled reports whether the token has been tripped. Nil-safe.
func (cn *Cancel) Canceled() bool { return cn != nil && cn.flag.Load() }

// SortPasses is the number of sort passes started under the token
// (Ctx.SortPass), on every worker. Nil-safe.
func (cn *Cancel) SortPasses() int {
	if cn == nil {
		return 0
	}
	return int(cn.passes.Load())
}

// CanceledError is the panic payload of a tripped Check: Site names the
// public checkpoint (e.g. "benes.level", "graph.round") that observed the
// cancellation — a function of public shape only.
type CanceledError struct {
	Site string
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("forkjoin: execution canceled (at %s)", e.Site)
}

// TaskPanic wraps a panic recovered from a forked task so it can be
// re-raised in the joining frame (and ultimately converted to a typed
// error at the run boundary) without losing the original value or the
// stack of the panicking goroutine.
type TaskPanic struct {
	Val   any
	Stack []byte
}

func (p *TaskPanic) Error() string {
	return fmt.Sprintf("forkjoin: panic in forked task: %v", p.Val)
}

// wrapPanic normalizes a recovered value for re-raising: cancellation and
// already-wrapped task panics pass through unchanged (keeping the original
// site/stack); anything else is wrapped with the captured stack.
func wrapPanic(r any, stack []byte) any {
	switch r.(type) {
	case *CanceledError, *TaskPanic:
		return r
	}
	return &TaskPanic{Val: r, Stack: stack}
}

// SerialCancel returns a serial context carrying cn (Serial with a
// cancellation token).
func SerialCancel(cn *Cancel) *Ctx { return &Ctx{cancel: cn} }

// WithCancel returns a copy of c carrying cn. The returned context shares
// c's executor; in parallel mode prefer Pool.RunCancel, which arms every
// worker's context so stolen tasks check the token too.
func (c *Ctx) WithCancel(cn *Cancel) *Ctx {
	cp := *c
	cp.cancel = cn
	return &cp
}

// Check is the cooperative cancellation checkpoint: it panics with
// *CanceledError{Site: site} when the context's token has been tripped.
// Call it only at public-shape points — the call itself is one atomic load
// with no instrumented memory operations, so an untripped run's metered
// trace and access pattern are unchanged by any number of checks.
func (c *Ctx) Check(site string) {
	if c != nil && c.cancel.Canceled() {
		panic(&CanceledError{Site: site})
	}
}

// SortPass is the checkpoint at the start of a full sort pass — a relational
// sort or a word-plane sort of the PRAM layer: Check(site), then the
// "sort.pass" fault-injection site, then one count on the run's token (none
// without a token). Like Check it makes no instrumented memory access, and
// the number of passes is a function of public shape.
func (c *Ctx) SortPass(site string) {
	c.Check(site)
	faultinject.Hit("sort.pass")
	if c != nil && c.cancel != nil {
		c.cancel.passes.Add(1)
	}
}
