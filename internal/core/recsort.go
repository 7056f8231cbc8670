package core

import (
	"sync/atomic"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/matrix"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/prng"
)

// RecSortStats reports diagnostics of a REC-SORT run.
type RecSortStats struct {
	// Pivots is the number of pivots selected (before power-of-two padding).
	Pivots int
	// Beta is the number of top-level regions (power of two).
	Beta int
	// Cap is the per-bin capacity used.
	Cap int
	// Lost counts elements dropped by bin-capacity overflow (the
	// negligible-probability event of §E.2's Chernoff analysis).
	Lost int
}

// RecSortPermuted sorts an array that has been randomly permuted, using the
// paper's REC-SORT (§E.2): a γ-way butterfly with the same recursive
// structure as REC-ORBA, where binning is decided by a precomputed sorted
// pivot set instead of random labels, bins carry revealed loads, and no
// filler padding is needed (the algorithm need not be data-oblivious — its
// access-pattern distribution is input-independent *because* the input was
// obliviously permuted first).
//
// Elements are ordered by Elem.Key. The returned array has length
// n − Lost; Lost is 0 except with negligible probability.
func RecSortPermuted(c *forkjoin.Ctx, sp *mem.Space, perm *mem.Array[obliv.Elem], seed uint64, p Params) (*mem.Array[obliv.Elem], RecSortStats) {
	n := perm.Len()
	p = p.Normalized(n)
	var stats RecSortStats

	if n < 2 {
		out := mem.Alloc[obliv.Elem](sp, n)
		mem.CopyPar(c, out, 0, perm, 0, n)
		return out, stats
	}

	// selectPivots returns zero pivots for inputs too small to sample a
	// full spacing worth of elements; sortWhole handles those directly.
	pivots, npiv := selectPivots(c, sp, perm, seed, p)
	stats.Pivots = npiv
	if npiv == 0 {
		out := sortWhole(c, sp, perm, p)
		return out, stats
	}
	beta := pivots.Len() + 1 // power of two
	stats.Beta = beta

	chunk := (n + beta - 1) / beta
	capacity := obliv.NextPow2(p.BinCapFactor * chunk)
	stats.Cap = capacity

	// Distribute the permuted input into β initial bins of consecutive
	// chunks; loads are revealed throughout REC-SORT.
	buf := mem.Alloc[obliv.Elem](sp, beta*capacity)
	loads := mem.Alloc[uint64](sp, beta)
	forkjoin.ParallelFor(c, 0, beta, 1, func(c *forkjoin.Ctx, b int) {
		lo := b * chunk
		hi := min(lo+chunk, n)
		if lo > n {
			lo = n
		}
		if hi > lo {
			mem.CopyPar(c, buf, b*capacity, perm, lo, hi-lo)
		}
		loads.Set(c, b, uint64(max(0, hi-lo)))
	})

	scratch := mem.Alloc[obliv.Elem](sp, beta*capacity)
	scratchLoads := mem.Alloc[uint64](sp, beta)
	var lost atomic.Int64
	recSort(c, sp, buf, loads, scratch, scratchLoads, 0, beta, pivots, capacity, p, &lost)
	stats.Lost = int(lost.Load())

	// Concatenate bins by load into the output.
	offsets := mem.Alloc[uint64](sp, beta)
	mem.CopyPar(c, offsets, 0, loads, 0, beta)
	obliv.PrefixSumU64(c, sp, offsets, false)
	out := mem.Alloc[obliv.Elem](sp, n-stats.Lost)
	forkjoin.ParallelFor(c, 0, beta, 1, func(c *forkjoin.Ctx, b int) {
		off := int(offsets.Get(c, b))
		ld := int(loads.Get(c, b))
		if ld > 0 {
			mem.CopyPar(c, out, off, buf, b*capacity, ld)
		}
	})
	return out, stats
}

// sortWhole network-sorts the whole array (pow2-padded) and returns a
// compact sorted copy.
func sortWhole(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[obliv.Elem], p Params) *mem.Array[obliv.Elem] {
	n := a.Len()
	if n == 0 {
		return mem.Alloc[obliv.Elem](sp, 0)
	}
	w := mem.Alloc[obliv.Elem](sp, obliv.NextPow2(n))
	mem.CopyPar(c, w, 0, a, 0, n)
	p.Sorter.Sort(c, sp, w, 0, w.Len(), sortKey)
	out := mem.Alloc[obliv.Elem](sp, n)
	mem.CopyPar(c, out, 0, w, 0, n)
	return out
}

// sortKey orders by the caller's Key with fillers last.
func sortKey(e obliv.Elem) uint64 {
	if e.Kind != obliv.Real {
		return obliv.InfKey
	}
	return e.Key
}

// selectPivots implements the pre-processing phase of §E.2: sample each
// element with probability 1/SampleRate, sort the sample with the network
// sorter, keep every PivotSpacing-th element, and pad the pivot array with
// +∞ so that (#pivots + 1) is a power of two. Returns the padded pivot
// array and the unpadded pivot count.
func selectPivots(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[obliv.Elem], seed uint64, p Params) (*mem.Array[uint64], int) {
	n := a.Len()
	src := prng.New(prng.Mix64(seed ^ 0x7069766f7473)) // "pivots"
	rate := uint64(max(1, p.SampleRate))
	// Mark sampled positions (RNG-dependent only).
	idx := make([]int, 0, n/int(rate)*2+8)
	for i := 0; i < n; i++ {
		if src.Uint64n(rate) == 0 {
			idx = append(idx, i)
		}
	}
	if len(idx) < p.PivotSpacing {
		return nil, 0
	}
	// Gather and sort the sample.
	w := mem.Alloc[obliv.Elem](sp, obliv.NextPow2(len(idx)))
	forkjoin.ParallelFor(c, 0, len(idx), 0, func(c *forkjoin.Ctx, k int) {
		e := a.Get(c, idx[k])
		w.Set(c, k, e)
	})
	p.Sorter.Sort(c, sp, w, 0, w.Len(), sortKey)

	npiv := len(idx) / p.PivotSpacing
	beta := obliv.NextPow2(npiv + 1)
	pv := mem.Alloc[uint64](sp, beta-1)
	forkjoin.ParallelFor(c, 0, beta-1, 0, func(c *forkjoin.Ctx, t int) {
		v := obliv.InfKey
		if t < npiv {
			v = w.Get(c, (t+1)*p.PivotSpacing-1).Key
		}
		pv.Set(c, t, v)
	})
	return pv, npiv
}

// recSort redistributes the β bins at bin offset off into β region bins
// defined by the β−1 entries of pivots, leaving every bin sorted. It is
// the REC-SORTγ recursion of §E.2.
func recSort(c *forkjoin.Ctx, sp *mem.Space, buf *mem.Array[obliv.Elem], loads *mem.Array[uint64], scratch *mem.Array[obliv.Elem], scratchLoads *mem.Array[uint64], off, beta int, pivots *mem.Array[uint64], capacity int, p Params, lost *atomic.Int64) {
	if beta <= 1 {
		// One region: just sort the single bin's content in place.
		ld := int(loads.Get(c, off))
		if ld > 1 {
			w := mem.Alloc[obliv.Elem](sp, obliv.NextPow2(ld))
			mem.CopyPar(c, w, 0, buf, off*capacity, ld)
			p.Sorter.Sort(c, sp, w, 0, w.Len(), sortKey)
			mem.CopyPar(c, buf, off*capacity, w, 0, ld)
		}
		return
	}
	if beta <= p.Gamma {
		recSortBase(c, sp, buf, loads, off, beta, pivots, capacity, p, lost)
		return
	}
	k := obliv.Log2(beta)
	b1 := 1 << uint((k+1)/2)
	b2 := beta / b1

	// Coarse pivots: every b1-th global pivot (the boundaries between the
	// b2 coarse regions).
	cp := mem.Alloc[uint64](sp, b2-1)
	forkjoin.ParallelFor(c, 0, b2-1, 0, func(c *forkjoin.Ctx, t int) {
		cp.Set(c, t, pivots.Get(c, (t+1)*b1-1))
	})

	// Phase 1: each of the b1 partitions (b2 consecutive bins) distributes
	// its elements into b2 coarse-region bins.
	forkjoin.ParallelFor(c, 0, b1, 1, func(c *forkjoin.Ctx, j int) {
		recSort(c, sp, buf, loads, scratch, scratchLoads, off+j*b2, b2, cp, capacity, p, lost)
	})

	// Transpose the b1×b2 matrix of bins (and their loads) so each coarse
	// region's pieces become consecutive.
	region := buf.View(off*capacity, beta*capacity)
	sregion := scratch.View(off*capacity, beta*capacity)
	matrix.TransposeBlocks(c, sregion, region, b1, b2, capacity)
	mem.CopyPar(c, region, 0, sregion, 0, beta*capacity)
	lregion := loads.View(off, beta)
	slregion := scratchLoads.View(off, beta)
	matrix.Transpose(c, slregion, lregion, b1, b2)
	mem.CopyPar(c, lregion, 0, slregion, 0, beta)

	// Phase 2: each coarse region (b1 bins) distributes into its b1 fine
	// regions using the pivots interior to that region.
	forkjoin.ParallelFor(c, 0, b2, 1, func(c *forkjoin.Ctx, i int) {
		fp := pivots.View(i*b1, b1-1)
		recSort(c, sp, buf, loads, scratch, scratchLoads, off+i*b1, b1, fp, capacity, p, lost)
	})
}

// recSortBase gathers the ≤γ input bins, network-sorts them, and splits the
// sorted run into β region bins by binary search on the pivots.
func recSortBase(c *forkjoin.Ctx, sp *mem.Space, buf *mem.Array[obliv.Elem], loads *mem.Array[uint64], off, beta int, pivots *mem.Array[uint64], capacity int, p Params, lost *atomic.Int64) {
	// Per-bin output offsets in the gather buffer.
	offs := mem.Alloc[uint64](sp, beta)
	forkjoin.ParallelFor(c, 0, beta, 0, func(c *forkjoin.Ctx, b int) {
		offs.Set(c, b, loads.Get(c, off+b))
	})
	obliv.PrefixSumU64(c, sp, offs, false)
	last := int(offs.Get(c, beta-1)) + int(loads.Get(c, off+beta-1))
	total := last

	w := mem.Alloc[obliv.Elem](sp, obliv.NextPow2(beta*capacity))
	forkjoin.ParallelFor(c, 0, beta, 1, func(c *forkjoin.Ctx, b int) {
		ld := int(loads.Get(c, off+b))
		if ld > 0 {
			mem.CopyPar(c, w, int(offs.Get(c, b)), buf, (off+b)*capacity, ld)
		}
	})
	p.Sorter.Sort(c, sp, w, 0, w.Len(), sortKey)

	// Split [0, total) into β regions: region t is (pivot[t-1], pivot[t]].
	forkjoin.ParallelFor(c, 0, beta, 1, func(c *forkjoin.Ctx, t int) {
		lo := 0
		if t > 0 {
			lo = upperBound(c, w, total, pivots.Get(c, t-1))
		}
		hi := total
		if t < beta-1 {
			hi = upperBound(c, w, total, pivots.Get(c, t))
		}
		ld := hi - lo
		if ld > capacity {
			lost.Add(int64(ld - capacity))
			ld = capacity
		}
		if ld > 0 {
			mem.CopyPar(c, buf, (off+t)*capacity, w, lo, ld)
		}
		loads.Set(c, off+t, uint64(ld))
	})
}

// upperBound returns the first index in w[0:total) whose Key exceeds v
// (instrumented binary search; the probes depend on revealed loads and the
// permuted data, which is fine for the non-oblivious REC-SORT).
func upperBound(c *forkjoin.Ctx, w *mem.Array[obliv.Elem], total int, v uint64) int {
	lo, hi := 0, total
	for lo < hi {
		mid := (lo + hi) / 2
		e := w.Get(c, mid)
		c.Op(1)
		if sortKey(e) > v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
