package forkjoin

import (
	"sync/atomic"
	"testing"
)

// fib computes Fibonacci with naive binary forking — the classic fork-join
// stress test exercising deep nesting and heavy stealing.
func fib(c *Ctx, n int, out *int64) {
	if n < 2 {
		*out = int64(n)
		return
	}
	var a, b int64
	c.Fork(
		func(c *Ctx) { fib(c, n-1, &a) },
		func(c *Ctx) { fib(c, n-2, &b) },
	)
	*out = a + b
}

func TestSerialFork(t *testing.T) {
	var got int64
	fib(Serial(), 15, &got)
	if got != 610 {
		t.Fatalf("fib(15) = %d, want 610", got)
	}
}

func TestParallelFibCorrect(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		var got int64
		RunParallel(workers, func(c *Ctx) { fib(c, 20, &got) })
		if got != 6765 {
			t.Fatalf("workers=%d: fib(20) = %d, want 6765", workers, got)
		}
	}
}

func TestPoolReuse(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for iter := 0; iter < 20; iter++ {
		var got int64
		p.Run(func(c *Ctx) { fib(c, 15, &got) })
		if got != 610 {
			t.Fatalf("iter %d: got %d", iter, got)
		}
	}
}

func TestParallelForCoversRange(t *testing.T) {
	const n = 10000
	marks := make([]int32, n)
	RunParallel(4, func(c *Ctx) {
		ParallelFor(c, 0, n, 7, func(c *Ctx, i int) {
			atomic.AddInt32(&marks[i], 1)
		})
	})
	for i, m := range marks {
		if m != 1 {
			t.Fatalf("index %d visited %d times", i, m)
		}
	}
}

func TestParallelForEmptyAndSingle(t *testing.T) {
	count := int32(0)
	RunParallel(2, func(c *Ctx) {
		ParallelFor(c, 5, 5, 1, func(c *Ctx, i int) { atomic.AddInt32(&count, 1) })
		ParallelFor(c, 3, 4, 1, func(c *Ctx, i int) {
			if i != 3 {
				t.Errorf("index %d", i)
			}
			atomic.AddInt32(&count, 1)
		})
	})
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
}

func TestParallelRangePartition(t *testing.T) {
	const n = 5000
	var total int64
	var mu atomic.Int64
	_ = total
	RunParallel(4, func(c *Ctx) {
		ParallelRange(c, 0, n, 11, func(c *Ctx, lo, hi int) {
			var s int64
			for i := lo; i < hi; i++ {
				s += int64(i)
			}
			mu.Add(s)
		})
	})
	want := int64(n) * (n - 1) / 2
	if mu.Load() != want {
		t.Fatalf("sum = %d, want %d", mu.Load(), want)
	}
}

// TestFinishedTasksDropTheirClosures: a deque's ring slot keeps pointing at
// a task after it is popped or stolen, so a finished task must not keep its
// closure — the closures of a pass capture whole work arrays, which would
// stay live, and raise the peak heap, until the slot is reused.
func TestFinishedTasksDropTheirClosures(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var ran atomic.Int64
	p.Run(func(c *Ctx) {
		ParallelRange(c, 0, 1<<12, 1, func(c *Ctx, lo, hi int) {
			for i := 0; i < 200; i++ {
				ran.Add(1)
			}
		})
	})
	if ran.Load() != 200<<12 {
		t.Fatalf("ran %d leaf steps, want %d", ran.Load(), 200<<12)
	}
	for wi, w := range p.workers {
		r := w.dq.buf.Load()
		for i := range r.slots {
			if tk := r.slots[i].Load(); tk != nil && tk.fn != nil {
				t.Fatalf("worker %d ring slot %d still holds a finished task's closure", wi, i)
			}
		}
	}
}

func TestMeteredWorkSpanSimple(t *testing.T) {
	// Two branches each doing 10 ops: work = 20 + fork/join bookkeeping (2),
	// span = 10 + fork + join = 12.
	m := RunMetered(MeterOpts{}, func(c *Ctx) {
		c.Fork(
			func(c *Ctx) { c.Op(10) },
			func(c *Ctx) { c.Op(10) },
		)
	})
	if m.Work != 22 {
		t.Fatalf("work = %d, want 22", m.Work)
	}
	if m.Span != 12 {
		t.Fatalf("span = %d, want 12", m.Span)
	}
	if m.Forks != 1 {
		t.Fatalf("forks = %d, want 1", m.Forks)
	}
}

func TestMeteredSpanIsMax(t *testing.T) {
	m := RunMetered(MeterOpts{}, func(c *Ctx) {
		c.Fork(
			func(c *Ctx) { c.Op(100) },
			func(c *Ctx) { c.Op(3) },
		)
	})
	if m.Span != 102 {
		t.Fatalf("span = %d, want 102 (max branch + fork + join)", m.Span)
	}
	m = RunMetered(MeterOpts{}, func(c *Ctx) {
		c.Fork(
			func(c *Ctx) { c.Op(3) },
			func(c *Ctx) { c.Op(100) },
		)
	})
	if m.Span != 102 {
		t.Fatalf("span = %d, want 102 (symmetric)", m.Span)
	}
}

func TestMeteredNestedSpan(t *testing.T) {
	// A balanced binary tree of depth d with unit leaf work has span
	// 2d + 1 (fork+join per level, 1 leaf op).
	var tree func(c *Ctx, d int)
	tree = func(c *Ctx, d int) {
		if d == 0 {
			c.Op(1)
			return
		}
		c.Fork(func(c *Ctx) { tree(c, d-1) }, func(c *Ctx) { tree(c, d-1) })
	}
	const d = 6
	m := RunMetered(MeterOpts{}, func(c *Ctx) { tree(c, d) })
	if m.Span != 2*d+1 {
		t.Fatalf("span = %d, want %d", m.Span, 2*d+1)
	}
	if m.Forks != (1<<d)-1 {
		t.Fatalf("forks = %d, want %d", m.Forks, (1<<d)-1)
	}
	// Work: 2^d leaf ops + 2 per fork.
	if m.Work != (1<<d)+2*((1<<d)-1) {
		t.Fatalf("work = %d", m.Work)
	}
}

func TestMeteredParallelForSpanLogarithmic(t *testing.T) {
	// ParallelFor in metered mode uses grain 1: span should grow like
	// log n, not n.
	span := func(n int) int64 {
		m := RunMetered(MeterOpts{}, func(c *Ctx) {
			ParallelFor(c, 0, n, 1000, func(c *Ctx, i int) { c.Op(1) })
		})
		return m.Span
	}
	s1, s2 := span(1<<8), span(1<<12)
	if s2 > 4*s1 {
		t.Fatalf("span grew too fast: %d -> %d (should be logarithmic)", s1, s2)
	}
	if s2 <= s1 {
		t.Fatalf("span should still grow: %d -> %d", s1, s2)
	}
}

func TestMeteredAccessCounts(t *testing.T) {
	m := RunMetered(MeterOpts{CacheM: 64, CacheB: 8, EnableTrace: true}, func(c *Ctx) {
		for i := 0; i < 10; i++ {
			c.Access(uint64(i), false)
		}
		for i := 0; i < 5; i++ {
			c.Access(uint64(i), true)
		}
	})
	if m.Reads != 10 || m.Writes != 5 || m.MemOps != 15 {
		t.Fatalf("reads=%d writes=%d memops=%d", m.Reads, m.Writes, m.MemOps)
	}
	if m.CacheAccesses != 15 {
		t.Fatalf("cache accesses = %d", m.CacheAccesses)
	}
	if m.CacheMisses != 2 { // addresses 0..9 cover blocks 0 and 1
		t.Fatalf("cache misses = %d, want 2", m.CacheMisses)
	}
	if m.Trace.Count != 15 {
		t.Fatalf("trace count = %d", m.Trace.Count)
	}
}

func TestMeteredTraceDeterministic(t *testing.T) {
	run := func() *Metrics {
		return RunMetered(MeterOpts{EnableTrace: true}, func(c *Ctx) {
			ParallelFor(c, 0, 100, 1, func(c *Ctx, i int) {
				c.Access(uint64(i*3), i%2 == 0)
			})
		})
	}
	a, b := run(), run()
	if !a.Trace.Equal(b.Trace) {
		t.Fatal("metered trace not deterministic")
	}
}

func TestDequeLIFOFIFO(t *testing.T) {
	var d deque
	d.init()
	t1, t2, t3 := &task{}, &task{}, &task{}
	d.push(t1)
	d.push(t2)
	d.push(t3)
	// Owner pops newest first.
	if d.pop() != t3 {
		t.Fatal("pop should return newest")
	}
	// Thief steals oldest.
	if d.steal() != t1 {
		t.Fatal("steal should return oldest")
	}
	if d.pop() != t2 {
		t.Fatal("pop should return remaining")
	}
	if d.pop() != nil || d.steal() != nil {
		t.Fatal("empty deque should return nil")
	}
}

func TestDequeGrowth(t *testing.T) {
	var d deque
	d.init()
	tasks := make([]*task, 1000)
	for i := range tasks {
		tasks[i] = &task{}
		d.push(tasks[i])
	}
	for i := len(tasks) - 1; i >= 0; i-- {
		if got := d.pop(); got != tasks[i] {
			t.Fatalf("pop %d: wrong task", i)
		}
	}
}

func TestDequeConcurrentSteals(t *testing.T) {
	// One owner pushes/pops, several thieves steal; every task must be
	// executed exactly once.
	const n = 200000
	var d deque
	d.init()
	var executed atomic.Int64
	counts := make([]atomic.Int32, n)
	done := make(chan struct{})
	stop := atomic.Bool{}
	thief := func() {
		for !stop.Load() {
			if tk := d.steal(); tk != nil {
				tk.fn(nil)
			}
		}
		done <- struct{}{}
	}
	for i := 0; i < 3; i++ {
		go thief()
	}
	mk := func(i int) *task {
		return &task{fn: func(*Ctx) {
			counts[i].Add(1)
			executed.Add(1)
		}}
	}
	next := 0
	for next < n {
		burst := 16
		for b := 0; b < burst && next < n; b++ {
			d.push(mk(next))
			next++
		}
		for {
			tk := d.pop()
			if tk == nil {
				break
			}
			tk.fn(nil)
		}
	}
	for executed.Load() < n {
	}
	stop.Store(true)
	for i := 0; i < 3; i++ {
		<-done
	}
	for i := 0; i < n; i++ {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("task %d executed %d times", i, c)
		}
	}
}

func TestStressUnbalancedTree(t *testing.T) {
	// Heavily unbalanced fork trees exercise the leapfrogging join path.
	var count atomic.Int64
	var chain func(c *Ctx, depth int)
	chain = func(c *Ctx, depth int) {
		if depth == 0 {
			count.Add(1)
			return
		}
		c.Fork(
			func(c *Ctx) { chain(c, depth-1) },
			func(c *Ctx) { count.Add(1) },
		)
	}
	RunParallel(4, func(c *Ctx) { chain(c, 3000) })
	if count.Load() != 3001 {
		t.Fatalf("count = %d, want 3001", count.Load())
	}
}

func TestMarkOnlyAffectsTrace(t *testing.T) {
	a := RunMetered(MeterOpts{EnableTrace: true}, func(c *Ctx) {
		c.Mark(1)
		c.Op(5)
	})
	b := RunMetered(MeterOpts{EnableTrace: true}, func(c *Ctx) {
		c.Mark(2)
		c.Op(5)
	})
	if a.Work != b.Work || a.Span != b.Span {
		t.Fatal("Mark should not contribute work/span")
	}
	if a.Trace.Equal(b.Trace) {
		t.Fatal("different marks should change the trace")
	}
}

func TestWorkerIDSeam(t *testing.T) {
	// Serial and metered contexts report the degenerate single-worker view.
	if Serial().WorkerID() != 0 || Serial().Workers() != 1 {
		t.Fatalf("serial ctx: WorkerID=%d Workers=%d", Serial().WorkerID(), Serial().Workers())
	}
	RunMetered(MeterOpts{}, func(c *Ctx) {
		if c.WorkerID() != 0 || c.Workers() != 1 {
			t.Errorf("metered ctx: WorkerID=%d Workers=%d", c.WorkerID(), c.Workers())
		}
	})

	// Pool mode: per-worker accumulators indexed by WorkerID, padded to a
	// cache line each, summed without any synchronization — the scratch-seam
	// usage the accessor exists for. Every leaf must see a stable in-range id.
	const n = 1 << 14
	RunParallel(4, func(c *Ctx) {
		if c.Workers() != 4 {
			t.Errorf("Workers() = %d, want 4", c.Workers())
		}
		type padded struct {
			v int64
			_ [56]byte
		}
		acc := make([]padded, c.Workers())
		ParallelFor(c, 0, n, 16, func(c *Ctx, i int) {
			id := c.WorkerID()
			if id < 0 || id >= len(acc) {
				panic("WorkerID out of range")
			}
			acc[id].v++
		})
		var total int64
		for i := range acc {
			total += acc[i].v
		}
		if total != n {
			t.Errorf("per-worker accumulation lost updates: got %d, want %d", total, n)
		}
	})
}
