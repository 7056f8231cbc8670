package forkjoin

import (
	"testing"
	"time"
)

// BenchmarkFork times one nop Fork pair on a 2-worker pool. "parked" forks
// once per iteration with the thief parked, so it includes the wake-up
// signal; "awake" forks back to back with the thief spinning beside the
// owner, contending for its deque.
func BenchmarkFork(b *testing.B) {
	nop := func(*Ctx) {}
	b.Run("parked", func(b *testing.B) {
		p := NewPool(2)
		defer p.Close()
		c := p.OwnerCtx()
		b.ResetTimer()
		for range b.N {
			b.StopTimer()
			waitParked(p)
			b.StartTimer()
			c.Fork(nop, nop)
		}
	})
	b.Run("awake", func(b *testing.B) {
		p := NewPool(2)
		defer p.Close()
		b.ResetTimer()
		p.Run(func(c *Ctx) {
			for range b.N {
				c.Fork(nop, nop)
			}
		})
	})
}

// BenchmarkWakeAfterIdle times a fork issued once the thief has parked
// until the thief runs it: the fork's first branch waits for the second to
// start, and only a woken thief can start it.
func BenchmarkWakeAfterIdle(b *testing.B) {
	p := NewPool(2)
	defer p.Close()
	c := p.OwnerCtx()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		waitParked(p)
		b.StartTimer()
		if !forkAwaitingThief(c, 5*time.Second) {
			b.Fatal("no thief woke")
		}
	}
}
