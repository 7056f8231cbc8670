package forkjoin

import (
	"runtime"
	"sync"
	"sync/atomic"

	"oblivmc/internal/prng"
)

// idleSpins is how many fruitless rounds of steal attempts, each followed by
// a yield, a background worker makes before it parks: a few hundred
// microseconds on a 2-vCPU Xeon. Serial stretches shorter than that (a scan,
// a key-schedule build, a round boundary) find the worker still awake, and
// an idle pool stops using CPU soon after its last task. Chosen by
// measurement: on graph_cc_det, 16 and 64 rounds were slower than 512, and
// 2048 was no faster but quadrupled the CPU an idle pool burns.
const idleSpins = 512

// Pool is a work-stealing scheduler for binary fork-join computations.
//
// The pool owns nWorkers-1 background worker goroutines; the goroutine that
// calls Run acts as worker 0 for the duration of the call. Run is not
// reentrant and must not be called concurrently from multiple goroutines.
//
// A background worker that finds no work spins for a bounded number of
// rounds, then parks: it blocks until a Fork pushes a task it can steal or
// Close stops the pool. An idle pool therefore stops using CPU soon after its
// last task, and a parked worker joins the next parallel phase as soon as
// that phase's first fork wakes it.
type Pool struct {
	workers []*worker
	stop    atomic.Bool
	wg      sync.WaitGroup
	runMu   sync.Mutex

	// parked counts the background workers that have announced they are
	// parking; a Fork that reads zero skips the wake.
	parked atomic.Int32
	// wake carries wake-up tokens to parked workers. Its capacity is the
	// number of background workers, so when a send finds it full every
	// worker that could be parked already has a token waiting. A token left
	// over after its worker found work on its own costs at most one extra
	// spin phase.
	wake chan struct{}
	// quit is closed by Close and releases every parked worker.
	quit chan struct{}
}

type worker struct {
	pool *Pool
	id   int
	dq   deque
	rng  uint64
	ctx  Ctx
}

// NewPool creates a pool with n workers. n <= 0 selects GOMAXPROCS.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: make([]*worker, n),
		wake:    make(chan struct{}, n-1),
		quit:    make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		w := &worker{pool: p, id: i, rng: uint64(i)*0x9e3779b97f4a7c15 + 1}
		w.dq.init()
		w.ctx = Ctx{w: w}
		p.workers[i] = w
	}
	for i := 1; i < n; i++ {
		p.wg.Add(1)
		go p.workers[i].loop()
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return len(p.workers) }

// OwnerCtx returns worker 0's context, for harnesses that issue a sequence
// of direct algorithm calls as the pool's root computation: the calling
// goroutine acts as worker 0 exactly as it does inside Run, with the
// background workers stealing its forks. Must not be used concurrently
// with Run or from more than one goroutine at a time.
func (p *Pool) OwnerCtx() *Ctx { return &p.workers[0].ctx }

// Run executes root on the pool and returns when root (and therefore every
// task it forked, by full strictness) has completed.
func (p *Pool) Run(root func(*Ctx)) {
	p.RunCancel(nil, root)
}

// RunCancel is Run with a cancellation token armed on every worker's
// context, so Check calls observe it from stolen tasks too. A panic out of
// root — including the *CanceledError a tripped token raises — propagates
// to the caller only after the computation has fully quiesced (each Fork
// frame joins its forked sibling before re-panicking), so the pool is
// reusable afterwards. The token is disarmed before returning.
func (p *Pool) RunCancel(cn *Cancel, root func(*Ctx)) {
	p.runMu.Lock()
	defer p.runMu.Unlock()
	if p.stop.Load() {
		panic("forkjoin: Run on closed Pool")
	}
	if cn != nil {
		// The writes are ordered before any task push (and therefore
		// before any steal) of this run, and the workers only read their
		// context while running a task, so arming and disarming here are
		// race-free.
		for _, w := range p.workers {
			w.ctx.cancel = cn
		}
		defer func() {
			for _, w := range p.workers {
				w.ctx.cancel = nil
			}
		}()
	}
	root(&p.workers[0].ctx)
}

// Close stops the background workers, parked or not, and returns once they
// have exited. The pool must be idle. Closing twice is harmless.
func (p *Pool) Close() {
	if p.stop.CompareAndSwap(false, true) {
		close(p.quit)
	}
	p.wg.Wait()
}

// RunParallel is a convenience wrapper: create a pool of n workers, run fn,
// close the pool.
func RunParallel(n int, fn func(*Ctx)) {
	p := NewPool(n)
	defer p.Close()
	p.Run(fn)
}

// RunParallelCancel is RunParallel with a cancellation token. The pool is
// closed (its workers joined) even when fn aborts by panic.
func RunParallelCancel(n int, cn *Cancel, fn func(*Ctx)) {
	p := NewPool(n)
	defer p.Close()
	p.RunCancel(cn, fn)
}

// loop is the background worker main loop: run what findWork finds; after
// idleSpins fruitless rounds, park.
func (w *worker) loop() {
	p := w.pool
	defer p.wg.Done()
	spins := 0
	for !p.stop.Load() {
		if t := w.findWork(); t != nil {
			w.runTask(t)
			spins = 0
			continue
		}
		if spins < idleSpins {
			spins++
			runtime.Gosched()
			continue
		}
		spins = 0
		if !w.park() {
			return
		}
	}
}

// park announces w as parked, re-checks every deque, and blocks until a
// Fork's signal or Close. It reports false when the pool is closing.
//
// No wake-up is lost: a Fork pushes its task before it loads parked, and
// park increments parked before it loads any deque's indices. Go's atomics
// are sequentially consistent, so either the Fork sees the increment and
// sends a token, or the re-check sees the task.
func (w *worker) park() bool {
	p := w.pool
	p.parked.Add(1)
	defer p.parked.Add(-1)
	for _, v := range p.workers {
		if v.dq.top.Load() < v.dq.bottom.Load() {
			return true
		}
	}
	select {
	case <-p.wake:
		return true
	case <-p.quit:
		return false
	}
}

// signal wakes one parked worker, if there is one, to steal the task the
// calling Fork has just pushed. With no worker parked it is one atomic load.
func (p *Pool) signal() {
	if p.parked.Load() > 0 {
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
}

// findWork pops the local deque, then attempts randomized steals.
func (w *worker) findWork() *task {
	if t := w.dq.pop(); t != nil {
		return t
	}
	n := len(w.pool.workers)
	if n == 1 {
		return nil
	}
	// A bounded number of random steal attempts per call; the caller loops.
	for attempt := 0; attempt < 2*n; attempt++ {
		v := int(prng.SplitMix64(&w.rng) % uint64(n))
		if v == w.id {
			continue
		}
		if t := w.pool.workers[v].dq.steal(); t != nil {
			return t
		}
	}
	return nil
}

func (w *worker) runTask(t *task) {
	// A panic in a stolen task must not kill the worker goroutine (that
	// would deadlock its joiner and leak the pool): record it for the
	// joining frame to re-raise, and always publish completion — the err
	// write is ordered before the done release store. The deque's ring slot
	// keeps pointing at t until it is reused, so fn is dropped first: its
	// captures (often whole work arrays) must not outlive the task.
	defer func() {
		if r := recover(); r != nil {
			t.err = wrapPanic(r, stackTrace())
		}
		t.fn = nil
		t.done.Store(1)
	}()
	t.fn(&w.ctx)
}

// join waits for t to complete, leapfrogging: while waiting, the worker
// executes any other available task (its own deque first, then steals), and
// yields the processor between fruitless rounds. It never parks or sleeps:
// t is running on a thief, so the wait ends as soon as that thief finishes.
func (w *worker) join(t *task) {
	for t.done.Load() == 0 {
		if other := w.findWork(); other != nil {
			w.runTask(other)
			continue
		}
		runtime.Gosched()
	}
}
