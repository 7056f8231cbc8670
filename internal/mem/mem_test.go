package mem

import (
	"testing"

	"oblivmc/internal/forkjoin"
)

func TestAllocDistinctAddresses(t *testing.T) {
	s := NewSpace()
	a := Alloc[uint64](s, 100)
	b := Alloc[uint64](s, 100)
	if a.Base() == b.Base() {
		t.Fatal("arrays share a base address")
	}
	// Ranges must not overlap.
	if b.Base() < a.Base()+uint64(a.Len()) && a.Base() < b.Base()+uint64(b.Len()) {
		t.Fatal("address ranges overlap")
	}
}

func TestGetSetRoundTrip(t *testing.T) {
	s := NewSpace()
	a := Alloc[int](s, 10)
	c := forkjoin.Serial()
	for i := 0; i < 10; i++ {
		a.Set(c, i, i*i)
	}
	for i := 0; i < 10; i++ {
		if got := a.Get(c, i); got != i*i {
			t.Fatalf("a[%d] = %d, want %d", i, got, i*i)
		}
	}
}

func TestViewAliases(t *testing.T) {
	s := NewSpace()
	a := FromSlice(s, []int{0, 1, 2, 3, 4, 5})
	v := a.View(2, 3)
	c := forkjoin.Serial()
	if v.Len() != 3 {
		t.Fatalf("view len = %d", v.Len())
	}
	if v.Get(c, 0) != 2 {
		t.Fatalf("view[0] = %d", v.Get(c, 0))
	}
	v.Set(c, 1, 99)
	if a.Get(c, 3) != 99 {
		t.Fatal("view write did not alias parent")
	}
	if v.Base() != a.Base()+2 {
		t.Fatal("view base address mismatch")
	}
}

func TestAccessesAreMetered(t *testing.T) {
	s := NewSpace()
	a := Alloc[uint64](s, 16)
	m := forkjoin.RunMetered(forkjoin.MeterOpts{EnableTrace: true}, func(c *forkjoin.Ctx) {
		for i := 0; i < 16; i++ {
			a.Set(c, i, uint64(i))
		}
		for i := 0; i < 16; i++ {
			a.Get(c, i)
		}
	})
	if m.Writes != 16 || m.Reads != 16 {
		t.Fatalf("reads=%d writes=%d", m.Reads, m.Writes)
	}
	if m.MemOps != 32 {
		t.Fatalf("memops = %d", m.MemOps)
	}
}

func TestTraceSeesAddressesNotValues(t *testing.T) {
	s := NewSpace()
	a := Alloc[uint64](s, 8)
	run := func(vals []uint64) *forkjoin.Metrics {
		return forkjoin.RunMetered(forkjoin.MeterOpts{EnableTrace: true}, func(c *forkjoin.Ctx) {
			for i, v := range vals {
				a.Set(c, i, v)
			}
		})
	}
	m1 := run([]uint64{1, 2, 3, 4, 5, 6, 7, 8})
	m2 := run([]uint64{8, 7, 6, 5, 4, 3, 2, 1})
	if !m1.Trace.Equal(m2.Trace) {
		t.Fatal("writing different values changed the trace")
	}
}

func TestCopyAndCopyPar(t *testing.T) {
	s := NewSpace()
	src := FromSlice(s, []int{10, 20, 30, 40, 50})
	dst := Alloc[int](s, 5)
	Copy(forkjoin.Serial(), dst, 0, src, 0, 5)
	for i := 0; i < 5; i++ {
		if dst.Data()[i] != src.Data()[i] {
			t.Fatalf("copy mismatch at %d", i)
		}
	}
	dst2 := Alloc[int](s, 5)
	forkjoin.RunParallel(2, func(c *forkjoin.Ctx) {
		CopyPar(c, dst2, 0, src, 0, 5)
	})
	for i := 0; i < 5; i++ {
		if dst2.Data()[i] != src.Data()[i] {
			t.Fatalf("par copy mismatch at %d", i)
		}
	}
}

func TestCopyOffsets(t *testing.T) {
	s := NewSpace()
	src := FromSlice(s, []int{1, 2, 3, 4, 5, 6})
	dst := Alloc[int](s, 6)
	Copy(forkjoin.Serial(), dst, 2, src, 3, 3)
	want := []int{0, 0, 4, 5, 6, 0}
	for i, w := range want {
		if dst.Data()[i] != w {
			t.Fatalf("dst = %v, want %v", dst.Data(), want)
		}
	}
}

func TestFill(t *testing.T) {
	s := NewSpace()
	a := Alloc[uint64](s, 100)
	forkjoin.RunParallel(2, func(c *forkjoin.Ctx) { Fill(c, a, 7) })
	for i, v := range a.Data() {
		if v != 7 {
			t.Fatalf("a[%d] = %d", i, v)
		}
	}
}

func TestFromSliceCopies(t *testing.T) {
	s := NewSpace()
	orig := []int{1, 2, 3}
	a := FromSlice(s, orig)
	orig[0] = 99
	if a.Data()[0] != 1 {
		t.Fatal("FromSlice should copy, not alias")
	}
}

func TestConcurrentAlloc(t *testing.T) {
	s := NewSpace()
	bases := make([]uint64, 64)
	forkjoin.RunParallel(4, func(c *forkjoin.Ctx) {
		forkjoin.ParallelFor(c, 0, 64, 1, func(c *forkjoin.Ctx, i int) {
			bases[i] = Alloc[byte](s, 10).Base()
		})
	})
	seen := map[uint64]bool{}
	for _, b := range bases {
		if seen[b] {
			t.Fatal("duplicate base address under concurrent allocation")
		}
		seen[b] = true
	}
}
