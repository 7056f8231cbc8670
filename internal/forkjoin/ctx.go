// Package forkjoin implements the binary fork-join computation model of the
// paper (§A.2): parallelism is expressed exclusively through paired binary
// fork and join operations, and any two fork-join computations are either
// disjoint or nested.
//
// The package provides two executors over the same algorithm code:
//
//   - a parallel executor (Pool) that schedules tasks with randomized work
//     stealing over Chase–Lev deques, the scheduler assumed by the paper's
//     performance model [BL99] — Go's own scheduler provides no fork-join
//     locality or bound guarantees, so we build one. An idle worker
//     spins for a bounded number of rounds and then parks, and each Fork
//     wakes a parked worker, so a stolen task is picked up promptly and an
//     idle pool uses no CPU;
//
//   - a metered executor (RunMetered) that executes the computation
//     sequentially in depth-first order while computing the exact total
//     work, the exact span (critical-path length of the series-parallel
//     DAG), the number of memory operations, the sequential cache
//     complexity Q under an ideal (M,B) LRU cache, and the access-pattern
//     fingerprint that constitutes the adversary's view (§B).
//
// Algorithms receive a *Ctx and never know which executor is driving them.
package forkjoin

import (
	"sync/atomic"

	"oblivmc/internal/cachesim"
	"oblivmc/internal/trace"
)

// Ctx is the per-execution handle threaded through every algorithm. The
// zero value is a valid serial context (no instrumentation, no
// parallelism), which is convenient in tests.
type Ctx struct {
	w      *worker // non-nil in parallel mode
	m      *Meter  // non-nil in metered mode
	cancel *Cancel // non-nil when the run carries a cancellation token
}

// Serial returns a context that executes forks sequentially with no
// instrumentation.
func Serial() *Ctx { return &Ctx{} }

// Meter accumulates the metrics of a metered run. Fields are manipulated
// directly by the mem package's hot path; the package is internal, so the
// exported fields are not API surface.
type Meter struct {
	work   int64
	span   int64 // span along the current path
	memOps int64
	reads  int64
	writes int64
	forks  int64
	cache  *cachesim.Cache
	rec    *trace.Recorder
}

// Metrics is an immutable snapshot of a metered run.
type Metrics struct {
	Work   int64 // total operations (unit-cost ops + memory ops + fork/join bookkeeping)
	Span   int64 // critical-path length of the computation DAG
	MemOps int64 // instrumented memory operations
	Reads  int64
	Writes int64
	Forks  int64 // number of binary forks

	CacheMisses   int64 // ideal-cache misses (0 if cache simulation disabled)
	CacheAccesses int64
	CacheM        int // cache parameters used (words)
	CacheB        int

	Trace trace.Fingerprint // adversary's-view fingerprint (zero if disabled)
}

// MeterOpts configures a metered run.
type MeterOpts struct {
	// CacheM, CacheB enable ideal-cache simulation when CacheM > 0.
	CacheM, CacheB int
	// EnableTrace turns on access-pattern recording.
	EnableTrace bool
	// Cancel, when non-nil, arms the run's cooperative cancellation token
	// (see Ctx.Check). An untripped token leaves the metered trace and
	// metrics byte-identical to a run with no token.
	Cancel *Cancel
}

// RunMetered executes fn under the metered executor and returns its
// metrics. Execution is sequential and deterministic.
func RunMetered(o MeterOpts, fn func(*Ctx)) *Metrics {
	m := &Meter{}
	if o.CacheM > 0 {
		b := o.CacheB
		if b <= 0 {
			b = 1
		}
		m.cache = cachesim.New(o.CacheM, b)
	}
	if o.EnableTrace {
		m.rec = trace.NewRecorder(0)
	}
	c := &Ctx{m: m, cancel: o.Cancel}
	fn(c)
	return m.snapshot()
}

func (m *Meter) snapshot() *Metrics {
	mt := &Metrics{
		Work:   m.work,
		Span:   m.span,
		MemOps: m.memOps,
		Reads:  m.reads,
		Writes: m.writes,
		Forks:  m.forks,
	}
	if m.cache != nil {
		mt.CacheMisses = m.cache.Misses()
		mt.CacheAccesses = m.cache.Accesses()
		mt.CacheM = m.cache.M()
		mt.CacheB = m.cache.B()
	}
	if m.rec != nil {
		mt.Trace = m.rec.Fingerprint()
	}
	return mt
}

// Metered reports whether c is running under the metered executor.
func (c *Ctx) Metered() bool { return c != nil && c.m != nil }

// ParallelMode reports whether c is running under the work-stealing pool
// (true concurrency). Insecure baselines with arbitrary-CRCW write races
// serialize their write phases in this mode.
func (c *Ctx) ParallelMode() bool { return c != nil && c.w != nil }

// WorkerID returns the index of the pool worker executing c, or 0 in the
// serial and metered executors. A worker runs one task at a time, so
// WorkerID together with Workers is the per-worker scratch seam: harness
// code indexes a Workers()-long slice of scratch by WorkerID and gets
// lock-free thread-local reuse without allocating inside the hot leaf.
// Two caveats: pad or space the per-worker entries (adjacent scratch
// headers written by different workers false-share), and never hold an
// entry across a Fork — a worker waiting at a join leapfrogs into stolen
// tasks, and one of those may claim the same worker's entry.
func (c *Ctx) WorkerID() int {
	if c != nil && c.w != nil {
		return c.w.id
	}
	return 0
}

// Workers returns the size of the pool executing c, or 1 in the serial and
// metered executors.
func (c *Ctx) Workers() int {
	if c != nil && c.w != nil {
		return len(c.w.pool.workers)
	}
	return 1
}

// Op charges n unit-cost operations (work and span each increase by n).
// Algorithms call Op for local computation that touches no instrumented
// memory, so the work measure reflects total operations, not just memory
// traffic.
func (c *Ctx) Op(n int64) {
	if c.m != nil {
		c.m.work += n
		c.m.span += n
	}
}

// Access records one instrumented memory operation at element address addr.
// It is called by the mem package on every Get and Set, so it is split to
// stay under the compiler's inlining budget: the unmetered executors pay a
// nil check at the call site and nothing else, and only a metered run makes
// the call into the out-of-line accounting below (CI fails unless
// `go build -gcflags=-m ./internal/forkjoin` reports it inlinable).
func (c *Ctx) Access(addr uint64, write bool) {
	if c.m != nil {
		c.access(addr, write)
	}
}

// access is the metered body of Access: one unit of work and span, one
// memory operation, one ideal-cache touch, one trace record.
func (c *Ctx) access(addr uint64, write bool) {
	m := c.m
	m.work++
	m.span++
	m.memOps++
	if write {
		m.writes++
	} else {
		m.reads++
	}
	if m.cache != nil {
		m.cache.Touch(addr)
	}
	if m.rec != nil {
		k := trace.Read
		if write {
			k = trace.Write
		}
		m.rec.Record(k, addr)
	}
}

// Mark records an application-defined annotation in the trace (phase
// boundaries). It contributes no work.
func (c *Ctx) Mark(tag uint64) {
	if c.m != nil && c.m.rec != nil {
		c.m.rec.Record(trace.Mark, tag)
	}
}

// Fork executes a and b as the two branches of a binary fork and joins
// them. In metered mode the branches run sequentially and the span is
// combined as max(span_a, span_b) plus unit fork/join costs. In parallel
// mode b is made available to thieves while the worker runs a.
func (c *Ctx) Fork(a, b func(*Ctx)) {
	if m := c.m; m != nil {
		m.forks++
		m.work++ // fork bookkeeping
		if m.rec != nil {
			m.rec.Record(trace.ForkEvent, 0)
		}
		s0 := m.span
		m.span = s0 + 1
		a(c)
		sa := m.span
		m.span = s0 + 1
		b(c)
		if m.span < sa {
			m.span = sa
		}
		m.span++ // join
		m.work++
		if m.rec != nil {
			m.rec.Record(trace.JoinEvent, 0)
		}
		return
	}
	if c.w == nil {
		// Serial context.
		a(c)
		b(c)
		return
	}
	w := c.w
	t := &task{fn: b}
	w.dq.push(t)
	w.pool.signal()
	// A panic out of a (a cancellation Check or a genuine fault) must not
	// unwind past this frame while b is possibly running on a thief: catch
	// it, settle b, then re-raise. Level-by-level, this guarantees the
	// whole computation has quiesced when the panic reaches the Run
	// boundary — full strictness holds even for aborted runs.
	var aPanic any
	func() {
		defer func() {
			if r := recover(); r != nil {
				aPanic = wrapPanic(r, stackTrace())
			}
		}()
		a(c)
	}()
	if got := w.dq.pop(); got != nil {
		if got != t {
			// Fully strict fork-join guarantees the bottom of the deque is
			// our own task; anything else is a scheduler bug.
			panic("forkjoin: deque bottom is not the forked task")
		}
		t.fn = nil // as in runTask: the ring slot must not keep b's captures
		if aPanic != nil {
			// b was never stolen: discard it unrun, exactly as the serial
			// executor would (a panic in a skips b), and re-raise.
			panic(aPanic)
		}
		b(c)
		t.done.Store(1)
		return
	}
	w.join(t)
	if aPanic != nil {
		panic(aPanic)
	}
	if t.err != nil {
		// The thief's panic, re-raised in the joining frame.
		panic(t.err)
	}
}

// task is a unit of stealable work.
type task struct {
	fn   func(*Ctx)
	done atomic.Uint32
	// err holds the wrapped panic of a stolen task's aborted execution,
	// written before done and re-raised by the joiner.
	err any
}
