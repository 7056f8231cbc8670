package main

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"oblivmc"
	"oblivmc/internal/bitonic"
	"oblivmc/internal/core"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/pram"
	"oblivmc/internal/spms"
)

// Probes time one layer's public function directly, on synthetic input drawn
// from the seed, on the same W-worker pool the batch workloads run on. They
// do not depend on the workload.

// probeReps is how often each probe runs; its metric is the median.
const probeReps = 3

// timed returns the median seconds of probeReps runs of fn; prep, when
// non-nil, runs untimed before each.
func timed(prep func(), fn func()) float64 {
	var s []float64
	for range probeReps {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		fn()
		s = append(s, time.Since(t0).Seconds())
	}
	return median(s)
}

// probeInput is n random elements with their keys cached at width w.
type probeInput struct {
	r    *rand.Rand
	n, w int
	a    *mem.Array[obliv.Elem]
	scr  *mem.Array[obliv.Elem]
	ks   *obliv.KeySchedule
	kscr *obliv.KeySchedule
}

func newProbeInput(r *rand.Rand, sp *mem.Space, n, w int) *probeInput {
	p := &probeInput{
		r: r, n: n, w: w,
		a: mem.Alloc[obliv.Elem](sp, n), scr: mem.Alloc[obliv.Elem](sp, n),
		ks: obliv.AllocKeySchedule(sp, n, w), kscr: obliv.AllocKeySchedule(sp, n, w),
	}
	p.ks.Tie, p.kscr.Tie = obliv.TiePos, obliv.TiePos
	return p
}

// fill redraws the elements and rebuilds their cached keys (plane 0 = Key,
// plane 1 = Key2): the input of the next sort.
func (p *probeInput) fill() {
	d := p.a.Data()
	for i := range d {
		d[i] = obliv.Elem{Key: p.r.Uint64N(1 << 40), Key2: p.r.Uint64N(8), Val: p.r.Uint64N(1 << 30), Aux: uint64(i), Kind: obliv.Real}
		p.ks.Plane(0).Data()[i] = d[i].Key
		if p.w > 1 {
			p.ks.Plane(1).Data()[i] = d[i].Key2
		}
	}
}

func nsPer(sec float64, n int) float64 { return sec * 1e9 / float64(n) }

func runProbes(ms *metricSet, seed uint64, sz sizes) error {
	r := newRand(seed, streamProbe)
	pool := forkjoin.NewPool(workers)
	defer pool.Close()
	sp := mem.NewSpace()
	n, small, sortN := sz.probeN, sz.probeSmall, sz.probeSortN
	serial := forkjoin.Serial()
	// par times fn as the pool's root computation.
	par := func(prep func(), fn func(c *forkjoin.Ctx)) float64 {
		return timed(prep, func() { pool.Run(fn) })
	}

	// mem: element traffic through Array.Get/Set against the raw slice.
	in := newProbeInput(r, sp, n, 1)
	in.fill()
	ms.set("mem.copy_ns_per_elem", nsPer(timed(nil, func() { mem.Copy(serial, in.scr, 0, in.a, 0, n) }), n))
	getset := timed(nil, func() {
		for i := 0; i < n; i++ {
			e := in.a.Get(serial, i)
			e.Val++
			in.a.Set(serial, i, e)
		}
	})
	raw := timed(nil, func() {
		d := in.a.Data()
		for i := range d {
			d[i].Val++
		}
	})
	ms.set("mem.getset_ns_per_elem", nsPer(getset, n))
	ms.set("mem.access_overhead_x", ratio(getset, raw))

	// forkjoin: the cost of a fork, of a pool, and what two workers buy on a
	// streaming loop.
	const forks = 1 << 16
	nop := func(*forkjoin.Ctx) {}
	ms.set("forkjoin.fork_ns", nsPer(par(nil, func(c *forkjoin.Ctx) {
		for range forks {
			c.Fork(nop, nop)
		}
	}), forks))
	ms.set("forkjoin.pool_start_us", 1e6*timed(nil, func() { forkjoin.NewPool(workers).Close() }))
	words := make([]uint64, 16*n)
	stream := func(c *forkjoin.Ctx) {
		forkjoin.ParallelRange(c, 0, len(words), 0, func(_ *forkjoin.Ctx, lo, hi int) {
			for i := lo; i < hi; i++ {
				words[i] = words[i]*3 + 1
			}
		})
	}
	one := forkjoin.NewPool(1)
	t1 := timed(nil, func() { one.Run(stream) })
	one.Close()
	ms.set("forkjoin.range_speedup_w2", ratio(t1, par(nil, stream)))

	// obliv: the comparator, the key-schedule pass, scans, and the routing
	// primitives.
	cex := func(p *probeInput) float64 {
		return nsPer(timed(p.fill, func() {
			for i, h := 0, p.n/2; i < h; i++ {
				obliv.CompareExchangeCachedW(serial, p.a, p.ks, i, i+h, true)
			}
		}), p.n/2)
	}
	in2 := newProbeInput(r, sp, n, 2)
	ms.set("obliv.cex_ns", cex(in))
	ms.set("obliv.cex_w2_ns", cex(in2))
	ms.set("obliv.keysched_build_ns_per_elem", nsPer(par(nil, func(c *forkjoin.Ctx) {
		obliv.BuildKeySchedule(c, in.a, in.ks, 0, n, func(e obliv.Elem, out []uint64) { out[0] = e.Key })
	}), n))
	sums := mem.Alloc[uint64](sp, n)
	ms.set("obliv.scan_ns_per_elem", nsPer(par(nil, func(c *forkjoin.Ctx) { obliv.PrefixSumU64(c, sp, sums, true) }), n))
	grouped := func() {
		in.fill()
		for i, d := 0, in.a.Data(); i < n; i++ {
			d[i].Key = uint64(i / 8)
		}
	}
	ms.set("obliv.aggsuffix_ns_per_elem", nsPer(par(grouped, func(c *forkjoin.Ctx) {
		obliv.AggregateSuffixBy(c, sp, in.a,
			func(x, y obliv.Elem) bool { return x.Key == y.Key },
			func(e obliv.Elem) uint64 { return e.Val },
			func(x, y uint64) uint64 { return x + y },
			func(e obliv.Elem, _ int, agg uint64) obliv.Elem { e.Val = agg; return e })
	}), n))
	// The routing primitives run at the bitonic probe's size: their work
	// arrays are three and two times their input.
	mid := newProbeInput(r, sp, sortN, 1)
	dests := mem.Alloc[uint64](sp, sortN)
	for i := range dests.Data() {
		dests.Data()[i] = uint64(2 * i)
	}
	ms.set("obliv.distribute_ns_per_elem", nsPer(par(mid.fill, func(c *forkjoin.Ctx) {
		obliv.DistributeOrdered(c, sp, mid.a, dests, 2*sortN,
			func(obliv.Elem) bool { return true },
			func(_, _ uint64, src obliv.Elem, _ bool) obliv.Elem { return src })
	}), sortN))
	shuffle := &core.ShuffleSorter{FixedSeed: &seed}
	distinct := func() {
		mid.fill()
		for i, d := 0, mid.a.Data(); i < sortN; i++ {
			d[i].Key = uint64(i)
		}
	}
	ms.set("obliv.sendrecv_ns_per_elem", nsPer(par(distinct, func(c *forkjoin.Ctx) {
		obliv.SendReceive(c, sp, mid.a, mid.a, shuffle)
	}), sortN))

	// bitonic: the cache-agnostic network at the sizes the fallback and the
	// graph layer use it, and one merge.
	network := func(p *probeInput) float64 {
		return par(p.fill, func(c *forkjoin.Ctx) {
			bitonic.CacheAgnostic{}.SortScheduled(c, sp, p.a, p.ks, p.scr, p.kscr, 0, p.n)
		})
	}
	bitonicSort := network(mid)
	ms.set("bitonic.sort_ns_per_elem", nsPer(bitonicSort, sortN))
	ms.set("bitonic.sort_small_ns_per_elem", nsPer(network(newProbeInput(r, sp, small, 1)), small))
	ms.set("bitonic.sort_w2_ns_per_elem", nsPer(network(newProbeInput(r, sp, sortN, 2)), sortN))
	ms.set("bitonic.merge_ns_per_elem", nsPer(par(in.fill, func(c *forkjoin.Ctx) {
		bitonic.MergeCA(c, in.a, in.scr, 0, n, true, 0, func(e obliv.Elem) uint64 { return e.Key })
	}), n))

	// spms and core: the two stages of the shuffle-then-sort composition.
	tie, tscr := mem.Alloc[uint64](sp, n), mem.Alloc[uint64](sp, n)
	permuted := func() {
		in.fill()
		for i := range tie.Data() {
			tie.Data()[i] = r.Uint64()
		}
	}
	sample := par(permuted, func(c *forkjoin.Ctx) {
		spms.SampleSortScheduled(c, sp, in.a, in.ks, tie, in.scr, in.kscr, tscr, 0, n, seed)
	})
	plain := make([]obliv.Elem, n)
	slicesSort := timed(func() { in.fill(); copy(plain, in.a.Data()) }, func() {
		slices.SortFunc(plain, func(x, y obliv.Elem) int { return cmp.Compare(x.Key, y.Key) })
	})
	ms.set("spms.samplesort_ns_per_elem", nsPer(sample, n))
	ms.set("spms.vs_slices_x", ratio(sample, slicesSort))
	shuffleSort := func(p *probeInput) float64 {
		sort := func(c *forkjoin.Ctx) { shuffle.SortScheduled(c, sp, p.a, p.ks, p.scr, p.kscr, 0, p.n) }
		p.fill()
		pool.Run(sort) // warm the sorter's caches at this size
		return par(p.fill, sort)
	}
	full := shuffleSort(in)
	ms.set("core.shuffle_sort_ns_per_elem", nsPer(full, n))
	ms.set("core.benes_ns_per_elem", nsPer(full-sample, n)) // derived: shuffle sort − sample sort
	ms.set("core.benes_share", ratio(full-sample, full))
	ms.set("core.bitonic_vs_shuffle_x", ratio(bitonicSort, shuffleSort(mid)))
	// Allocations of one warmed sort: on one goroutine and with the collector
	// off, so that the count is the sort's own and exact.
	var m0, m1 runtime.MemStats
	in.fill()
	gcPercent := debug.SetGCPercent(-1)
	runtime.ReadMemStats(&m0)
	shuffle.SortScheduled(serial, sp, in.a, in.ks, in.scr, in.kscr, 0, n)
	runtime.ReadMemStats(&m1)
	debug.SetGCPercent(gcPercent)
	ms.set("core.sort_allocs_per_op", float64(m1.Mallocs-m0.Mallocs))

	// pram: the graph layer's batched read and min-combining write.
	cells, reqs := sz.pramCells, sz.pramReqs
	memory := mem.Alloc[uint64](sp, cells)
	addrs := mem.Alloc[uint64](sp, reqs)
	writes := mem.Alloc[obliv.Elem](sp, reqs)
	for i := range addrs.Data() {
		addrs.Data()[i] = r.Uint64N(uint64(cells))
		writes.Data()[i] = obliv.Elem{Key: r.Uint64N(uint64(cells)), Val: r.Uint64N(uint64(cells)), Aux: uint64(i), Kind: obliv.Real}
	}
	ms.set("pram.gather_ns_per_elem", nsPer(par(nil, func(c *forkjoin.Ctx) {
		pram.Gather(c, sp, memory, addrs, bitonic.CacheAgnostic{})
	}), reqs))
	ms.set("pram.scatter_min_ns_per_elem", nsPer(par(nil, func(c *forkjoin.Ctx) {
		pram.ScatterResolveMin(c, sp, memory, writes, bitonic.CacheAgnostic{})
	}), reqs))

	// oblivmc: table construction and export, and the paper's own W / T∞ / Q
	// from one metered run of the fused query.
	fused := genFused(seed, n)
	var tab oblivmc.Table
	var err error
	ms.set("oblivmc.newtable_ns_per_row", nsPer(timed(nil, func() { tab, err = oblivmc.NewTable(fused.rows) }), n))
	if err != nil {
		return fmt.Errorf("probe table: %w", err)
	}
	ms.set("oblivmc.rows_out_ns_per_row", nsPer(timed(nil, func() { tab.WideRows() }), n))
	mIn := genFused(seed, sz.meteredN)
	mTab, err := oblivmc.NewTable(mIn.rows)
	if err != nil {
		return fmt.Errorf("metered probe table: %w", err)
	}
	cfg := execConfig(seed, oblivmc.SortAuto)
	cfg.Mode, cfg.CacheM, cfg.CacheB = oblivmc.ModeMetered, 1<<12, 8
	_, rep, err := oblivmc.RunQuery(cfg, mTab, fusedQuery(mIn.threshold))
	if err != nil {
		return fmt.Errorf("metered probe query: %w", err)
	}
	rows := float64(sz.meteredN)
	ms.set("oblivmc.metered_work_per_row", float64(rep.Work)/rows)
	ms.set("oblivmc.metered_span", float64(rep.Span))
	ms.set("oblivmc.metered_memops_per_row", float64(rep.MemOps)/rows)
	ms.set("oblivmc.metered_cache_miss_per_row", float64(rep.CacheMisses)/rows)
	return nil
}
