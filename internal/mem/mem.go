// Package mem provides instrumented arrays living in a flat, element-granular
// address space.
//
// Every algorithm in this module performs its memory traffic through
// Array.Get/Set so that the metered executor (internal/forkjoin) can count
// memory operations, drive the ideal-cache simulator, and record the access
// pattern that constitutes the adversary's view (§B of the paper). One array
// element occupies one address ("word"); the cache block size B is measured
// in elements (README, "Deviations from the paper", 5).
//
// Outside metered mode Get/Set compile down to a nil check and a slice
// index (forkjoin.(*Ctx).Access inlines; CI pins that), and hot leaves go
// one step further: Array.Raw hands an unmetered executor the backing slice
// so a block kernel decides "instrumented or not" once per block instead of
// once per word. The per-access path stays the specification — what a
// metered run executes and what the differential tests hold every raw
// kernel equal to.
package mem

import (
	"sync/atomic"

	"oblivmc/internal/forkjoin"
)

// addrAlign keeps distinct arrays on distinct cache-block boundaries for
// any simulated block size up to addrAlign.
const addrAlign = 1 << 12

// Space allocates non-overlapping address ranges. It is safe for concurrent
// allocation (parallel-mode algorithms may allocate scratch inside forked
// tasks). The pads keep the shared counter on its own cache line so
// allocating tasks contend only on the counter itself, not on whatever the
// runtime happens to place next to a small heap object.
type Space struct {
	_    [64]byte
	next atomic.Uint64
	_    [56]byte
}

// NewSpace returns an empty address space.
func NewSpace() *Space { return &Space{} }

// reserve claims n addresses and returns the base.
func (s *Space) reserve(n int) uint64 {
	sz := (uint64(n) + addrAlign - 1) &^ uint64(addrAlign-1)
	if sz == 0 {
		sz = addrAlign
	}
	return s.next.Add(sz) - sz
}

// Array is an instrumented, fixed-length array of T.
type Array[T any] struct {
	base uint64
	data []T
}

// Alloc allocates a zeroed array of n elements in s.
func Alloc[T any](s *Space, n int) *Array[T] {
	return &Array[T]{base: s.reserve(n), data: make([]T, n)}
}

// FromSlice allocates an array initialized with a copy of v. The copy is a
// harness operation (input loading) and is not instrumented.
func FromSlice[T any](s *Space, v []T) *Array[T] {
	a := Alloc[T](s, len(v))
	copy(a.data, v)
	return a
}

// Len returns the number of elements.
func (a *Array[T]) Len() int { return len(a.data) }

// Get reads element i, recording the access.
func (a *Array[T]) Get(c *forkjoin.Ctx, i int) T {
	c.Access(a.base+uint64(i), false)
	return a.data[i]
}

// Set writes element i, recording the access.
func (a *Array[T]) Set(c *forkjoin.Ctx, i int, v T) {
	c.Access(a.base+uint64(i), true)
	a.data[i] = v
}

// View returns an aliased subarray covering [lo, lo+n). Views share both
// backing store and addresses with the parent, which is what the recursive
// cache-agnostic algorithms need.
func (a *Array[T]) View(lo, n int) *Array[T] {
	return &Array[T]{base: a.base + uint64(lo), data: a.data[lo : lo+n]}
}

// Data exposes the raw backing slice without instrumentation. It exists for
// the harness (loading inputs, verifying outputs, collecting diagnostics
// outside the adversary's view); algorithm code must not use it.
func (a *Array[T]) Data() []T { return a.data }

// Raw is the one door through which algorithm code reaches the backing
// slice: it returns nil under the metered executor, whose every access must
// go through Get/Set, and the slice under the serial and pool executors,
// which record nothing. A block kernel written behind it must touch, per
// leaf, exactly the addresses its per-access twin touches, so the
// computation above the leaf and the per-leaf address set stay those of the
// specification.
func (a *Array[T]) Raw(c *forkjoin.Ctx) []T {
	if c.Metered() {
		return nil
	}
	return a.data
}

// Base returns the first address of the array (used in tests).
func (a *Array[T]) Base() uint64 { return a.base }

// copyGrain is the element count per leaf of the parallel copy and fill
// outside metered mode (which forks to single elements): a leaf is one
// memmove, so it has to be a few cache blocks long before a stolen task
// pays for itself.
const copyGrain = 1 << 12

// Copy copies n elements from src[slo:] to dst[dlo:], element by element,
// with instrumentation (outside metered mode, one memmove). The ranges must
// not overlap. The copy is sequential; callers needing parallelism wrap it
// in ParallelRange via CopyPar.
func Copy[T any](c *forkjoin.Ctx, dst *Array[T], dlo int, src *Array[T], slo, n int) {
	if d := dst.Raw(c); d != nil {
		copy(d[dlo:dlo+n], src.data[slo:slo+n])
		return
	}
	for k := 0; k < n; k++ {
		dst.Set(c, dlo+k, src.Get(c, slo+k))
	}
}

// CopyPar is a parallel instrumented copy.
func CopyPar[T any](c *forkjoin.Ctx, dst *Array[T], dlo int, src *Array[T], slo, n int) {
	forkjoin.ParallelRange(c, 0, n, copyGrain, func(c *forkjoin.Ctx, lo, hi int) {
		Copy(c, dst, dlo+lo, src, slo+lo, hi-lo)
	})
}

// Fill sets every element of a to v, in parallel.
func Fill[T any](c *forkjoin.Ctx, a *Array[T], v T) {
	forkjoin.ParallelRange(c, 0, a.Len(), copyGrain, func(c *forkjoin.Ctx, lo, hi int) {
		if d := a.Raw(c); d != nil {
			d = d[lo:hi]
			for i := range d {
				d[i] = v
			}
			return
		}
		for i := lo; i < hi; i++ {
			a.Set(c, i, v)
		}
	})
}
