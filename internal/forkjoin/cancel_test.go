package forkjoin

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestSerialCheck pins the cooperative contract on the serial executor: an
// untripped token is invisible, a tripped one panics *CanceledError with
// the public site at the next Check.
func TestSerialCheck(t *testing.T) {
	cn := new(Cancel)
	c := SerialCancel(cn)
	c.Check("a.site") // untripped: must not panic
	cn.Cancel()
	var caught any
	func() {
		defer func() { caught = recover() }()
		c.Check("b.site")
	}()
	ce, ok := caught.(*CanceledError)
	if !ok {
		t.Fatalf("Check after Cancel panicked %T (%v), want *CanceledError", caught, caught)
	}
	if ce.Site != "b.site" {
		t.Fatalf("CanceledError site = %q, want %q", ce.Site, "b.site")
	}
	// A nil ctx Check (helpers called with no harness) must be a no-op.
	var nilCtx *Ctx
	nilCtx.Check("c.site")
}

// TestRunCancelAborts cancels a running pool computation from another
// goroutine and requires: the abort surfaces as *CanceledError at the
// caller, the computation fully quiesces first, and the pool is reusable.
func TestRunCancelAborts(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	cn := new(Cancel)
	started := make(chan struct{})
	go func() {
		<-started
		time.Sleep(2 * time.Millisecond)
		cn.Cancel()
	}()
	var caught any
	func() {
		defer func() { caught = recover() }()
		p.RunCancel(cn, func(c *Ctx) {
			close(started)
			for {
				c.Check("root.loop")
				ParallelRange(c, 0, 1<<10, 32, func(c *Ctx, lo, hi int) {
					c.Check("body.range")
					time.Sleep(20 * time.Microsecond)
				})
			}
		})
	}()
	if _, ok := caught.(*CanceledError); !ok {
		t.Fatalf("canceled run panicked %T (%v), want *CanceledError", caught, caught)
	}
	// Full strictness must hold through the panic: the pool accepts and
	// completes the next run.
	var n atomic.Int64
	p.Run(func(c *Ctx) {
		ParallelRange(c, 0, 100, 1, func(c *Ctx, lo, hi int) {
			n.Add(int64(hi - lo))
		})
	})
	if n.Load() != 100 {
		t.Fatalf("post-cancel run covered %d/100 elements", n.Load())
	}
}

// TestForkPanicIsolation pins the panic path through Fork: an a-branch
// panic is wrapped *TaskPanic, the forked sibling is joined (or safely
// discarded when unstolen), the panic reaches the Run caller, and the
// pool's workers survive to run the next computation.
func TestForkPanicIsolation(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, branch := range []string{"a", "b"} {
		var caught any
		func() {
			defer func() { caught = recover() }()
			p.Run(func(c *Ctx) {
				// A tree of forks with one poisoned leaf, so stolen and
				// unstolen siblings both occur across iterations.
				ParallelRange(c, 0, 64, 1, func(c *Ctx, lo, hi int) {
					c.Fork(
						func(c *Ctx) {
							if branch == "a" && lo == 13 {
								panic("boom-a")
							}
						},
						func(c *Ctx) {
							if branch == "b" && lo == 13 {
								panic("boom-b")
							}
						},
					)
				})
			})
		}()
		if caught == nil {
			t.Fatalf("branch %s: panic did not propagate to Run caller", branch)
		}
		val := caught
		if tp, ok := caught.(*TaskPanic); ok {
			val = tp.Val
			if len(tp.Stack) == 0 {
				t.Fatalf("branch %s: TaskPanic carries no stack", branch)
			}
		}
		if want := "boom-" + branch; val != want {
			t.Fatalf("branch %s: panic value %v, want %q", branch, val, want)
		}
		// Quiescent unwinding: the same pool runs the next computation.
		var n atomic.Int64
		p.Run(func(c *Ctx) {
			ParallelRange(c, 0, 128, 1, func(c *Ctx, lo, hi int) { n.Add(int64(hi - lo)) })
		})
		if n.Load() != 128 {
			t.Fatalf("branch %s: post-panic run covered %d/128", branch, n.Load())
		}
	}
}

// TestCanceledErrorPassesThroughWrap pins that wrapPanic never re-wraps
// the typed payloads (a stolen task's CanceledError must reach the
// lifecycle boundary as itself, not buried in a TaskPanic).
func TestCanceledErrorPassesThroughWrap(t *testing.T) {
	ce := &CanceledError{Site: "x"}
	if got := wrapPanic(ce, nil); got != ce {
		t.Fatalf("wrapPanic(*CanceledError) = %#v, want identity", got)
	}
	tp := &TaskPanic{Val: "v"}
	if got := wrapPanic(tp, nil); got != tp {
		t.Fatalf("wrapPanic(*TaskPanic) = %#v, want identity", got)
	}
	if _, ok := wrapPanic("raw", []byte("st")).(*TaskPanic); !ok {
		t.Fatal("wrapPanic(raw) must wrap into *TaskPanic")
	}
}

// TestSortPassCount pins the sort-pass checkpoint's count: one pass per
// SortPass on the run's token, whichever pool worker runs it, added up
// across runs and executors on the same token; no count without a token or
// with a nil context; and a tripped token panics at the site like Check,
// before counting.
func TestSortPassCount(t *testing.T) {
	const n = 1000
	cn := new(Cancel)
	p := NewPool(4)
	defer p.Close()
	p.RunCancel(cn, func(c *Ctx) {
		ParallelFor(c, 0, n, 1, func(c *Ctx, _ int) { c.SortPass("test.sort") })
	})
	if got := cn.SortPasses(); got != n {
		t.Fatalf("a pool run of %d sort passes counted %d", n, got)
	}
	SerialCancel(cn).SortPass("test.sort")
	RunMetered(MeterOpts{Cancel: cn}, func(c *Ctx) { c.SortPass("test.sort") })
	if got := cn.SortPasses(); got != n+2 {
		t.Fatalf("a serial and a metered pass on the same token: count %d, want %d", got, n+2)
	}

	// No token: nothing to count, and nothing panics.
	Serial().SortPass("test.sort")
	var nilCtx *Ctx
	nilCtx.SortPass("test.sort")
	var nilToken *Cancel
	if got := nilToken.SortPasses(); got != 0 {
		t.Fatalf("a nil token reports %d sort passes", got)
	}

	cn.Cancel()
	var caught any
	func() {
		defer func() { caught = recover() }()
		SerialCancel(cn).SortPass("tripped.sort")
	}()
	if ce, ok := caught.(*CanceledError); !ok || ce.Site != "tripped.sort" {
		t.Fatalf("SortPass on a tripped token panicked %T (%v), want *CanceledError at tripped.sort", caught, caught)
	}
	if got := cn.SortPasses(); got != n+2 {
		t.Fatalf("a tripped SortPass counted a pass: %d, want %d", got, n+2)
	}
}
