package forkjoin

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// waitParked blocks until every background worker of p has parked.
func waitParked(p *Pool) {
	for p.parked.Load() < int32(len(p.workers)-1) {
		runtime.Gosched()
	}
}

// within runs fn on its own goroutine and fails the test if it has not
// returned after d, so a lost wake-up or a stuck Close fails instead of
// hanging the suite.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s: still running after %v", what, d)
	}
}

// forkAwaitingThief forks a pair whose first branch waits for the second to
// start. Only a thief can start it, so the pair finishes only if a parked
// worker was woken. It reports false if no thief arrived within d.
func forkAwaitingThief(c *Ctx, d time.Duration) bool {
	var started atomic.Bool
	ok := true
	c.Fork(func(*Ctx) {
		deadline := time.Now().Add(d)
		for !started.Load() {
			if time.Now().After(deadline) {
				ok = false
				return
			}
			runtime.Gosched()
		}
	}, func(*Ctx) { started.Store(true) })
	return ok
}

// TestParkNoLostWakeup runs many computations, each after every background
// worker has parked, and requires each fork to be stolen by a woken worker.
func TestParkNoLostWakeup(t *testing.T) {
	for _, workers := range []int{2, 4} {
		p := NewPool(workers)
		within(t, 60*time.Second, "park/wake runs", func() {
			for i := 0; i < 1000; i++ {
				waitParked(p)
				var ok bool
				p.Run(func(c *Ctx) { ok = forkAwaitingThief(c, 5*time.Second) })
				if !ok {
					t.Errorf("workers=%d run %d: no parked worker woke to steal the fork", workers, i)
					return
				}
			}
		})
		within(t, 10*time.Second, "Close", p.Close)
	}
}

// TestCloseParked closes a pool whose background workers are all parked.
func TestCloseParked(t *testing.T) {
	p := NewPool(4)
	var got int64
	p.Run(func(c *Ctx) { fib(c, 15, &got) })
	waitParked(p)
	within(t, 10*time.Second, "Close of a parked pool", p.Close)
}

// TestCloseWithStaleTokens closes a pool right after a burst of wake-ups
// has filled the wake channel while no worker was parked: the tokens are
// stale, and Close must not depend on delivering one of its own.
func TestCloseWithStaleTokens(t *testing.T) {
	p := NewPool(4)
	thieves := int32(len(p.workers) - 1)
	var holding atomic.Int32
	release := make(chan struct{})
	hold := func(*Ctx) {
		holding.Add(1)
		<-release
	}
	// Each level forks one holder; every background worker steals one and
	// blocks in it, so none is parked while the burst below runs.
	var nest func(c *Ctx, k int)
	nest = func(c *Ctx, k int) {
		if k > 0 {
			c.Fork(func(c *Ctx) { nest(c, k-1) }, hold)
			return
		}
		defer close(release)
		for holding.Load() < thieves {
			runtime.Gosched()
		}
		for i := 0; i < 2*len(p.workers); i++ {
			select {
			case p.wake <- struct{}{}:
			default:
			}
		}
		if len(p.wake) != cap(p.wake) {
			t.Errorf("burst left %d of %d tokens", len(p.wake), cap(p.wake))
		}
	}
	within(t, 10*time.Second, "holding run", func() { p.Run(func(c *Ctx) { nest(c, int(thieves)) }) })
	within(t, 10*time.Second, "Close after a wake burst", p.Close)
}

// TestCloseTwice requires a second Close to return.
func TestCloseTwice(t *testing.T) {
	p := NewPool(3)
	within(t, 10*time.Second, "first Close", p.Close)
	within(t, 10*time.Second, "second Close", p.Close)
}
