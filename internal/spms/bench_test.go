package spms

import (
	"fmt"
	"testing"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/prng"
)

// BenchmarkSampleSortScheduled sorts 2^18 width-1 rows with distinct tie
// words — the shuffle composition's second stage, on an already shuffled
// sequence — on 1- and 2-worker pools, and reports ns/elem. Each partition
// classifies every row once, in its histogram pass.
func BenchmarkSampleSortScheduled(b *testing.B) {
	const n = 1 << 18
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sp := mem.NewSpace()
			src := prng.New(5)
			a := mem.Alloc[obliv.Elem](sp, n)
			ks := obliv.AllocKeySchedule(sp, n, 1)
			tie := mem.Alloc[uint64](sp, n)
			in := make([]obliv.Elem, n)
			keys, ties := make([]uint64, n), make([]uint64, n)
			for i := range in {
				in[i] = obliv.Elem{Key: src.Uint64n(n / 4), Aux: uint64(i), Kind: obliv.Real}
				keys[i], ties[i] = in[i].Key, src.Uint64()
			}
			scr, kscr, tscr := mem.Alloc[obliv.Elem](sp, n), obliv.AllocKeySchedule(sp, n, 1), mem.Alloc[uint64](sp, n)
			pool := forkjoin.NewPool(workers)
			defer pool.Close()
			sort := func(c *forkjoin.Ctx) { SampleSortScheduled(c, sp, a, ks, tie, scr, kscr, tscr, 0, n, 11) }
			pool.Run(sort) // fault the scratch in before timing
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(a.Data(), in)
				copy(ks.Plane(0).Data(), keys)
				copy(tie.Data(), ties)
				b.StartTimer()
				pool.Run(sort)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
		})
	}
}
