//go:build unix

package oblivmc

import (
	"runtime"
	"syscall"
	"testing"
	"time"

	"oblivmc/internal/forkjoin"
)

// processCPU returns the user plus system CPU time the process has used.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestIdlePoolUsesNoCPU pins the idle policy a server relies on (its lanes
// are Sessions): once a computation has finished, a pool's background
// workers park instead of polling, so an idle 4-worker Pool and an idle
// Session{Workers: 4} together use almost no process CPU.
func TestIdlePoolUsesNoCPU(t *testing.T) {
	if raceEnabled {
		t.Skip("a CPU-time bound; the race detector distorts it")
	}
	p := forkjoin.NewPool(4)
	defer p.Close()
	s := NewSession(Config{Workers: 4})
	defer s.Close()

	// Work first, so the window below also covers the workers going idle.
	words := make([]uint64, 1<<16)
	p.Run(func(c *forkjoin.Ctx) {
		forkjoin.ParallelRange(c, 0, len(words), 0, func(_ *forkjoin.Ctx, lo, hi int) {
			for i := lo; i < hi; i++ {
				words[i] = words[i]*3 + 1
			}
		})
	})
	if _, _, err := s.RunQuery(mustTable(t, stressQueryRows(1<<12, 7)), Query{GroupBy: AggSum}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()

	const window, limit = 500 * time.Millisecond, 5 * time.Millisecond
	before := processCPU(t)
	time.Sleep(window)
	used := processCPU(t) - before
	t.Logf("idle %v: %v of process CPU", window, used)
	if used > limit {
		t.Fatalf("an idle pool and session used %v of CPU in %v, want < %v", used, window, limit)
	}
}
