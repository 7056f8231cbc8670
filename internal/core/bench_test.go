package core

import (
	"fmt"
	"testing"

	"oblivmc/internal/bitonic"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/prng"
)

// BenchmarkBenesLayer times the application of a routed Beneš network over
// 2^15 elements and one key plane on the serial executor — 29 layers of
// raw, mask-selected switches — and reports the cost per element per layer.
func BenchmarkBenesLayer(b *testing.B) {
	const n = 1 << 15
	sp := mem.NewSpace()
	a, ks := benesFixture(sp, n, 1)
	scr, kscr := mem.Alloc[obliv.Elem](sp, n), obliv.AllocKeySchedule(sp, n, 1)
	pl := routeBenes(prng.New(5).Perm(n))
	c := forkjoin.Serial()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.apply(c, a, scr, ks, kscr)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n/float64(len(pl.layers)), "ns/elem/layer")
}

// BenchmarkBackendCrossover sorts width-1 TiePos relations through the keyed
// bitonic network and through the shuffle composition (forced at every size)
// at the sizes around DefaultShuffleCrossover, on 1- and 2-worker pools. The
// bitonic/shuffle ratio of the ns/elem columns is the number the crossover
// constant's comment quotes.
func BenchmarkBackendCrossover(b *testing.B) {
	seed := uint64(7)
	for _, n := range []int{1 << 13, 1 << 15, 1 << 17} {
		for _, workers := range []int{1, 2} {
			backends := []obliv.ScheduledSorter{bitonic.CacheAgnostic{}, &ShuffleSorter{FixedSeed: &seed, Crossover: 2}}
			for _, srt := range backends {
				b.Run(fmt.Sprintf("n=%d/workers=%d/%s", n, workers, srt.Name()), func(b *testing.B) {
					sp := mem.NewSpace()
					a, ks := shuffleInput(sp, prng.New(uint64(n)), n, n-n/8, 1)
					in := append([]obliv.Elem(nil), a.Data()...)
					keys := append([]uint64(nil), ks.Plane(0).Data()...)
					scr, kscr := sortScratch(sp, ks, n)
					pool := forkjoin.NewPool(workers)
					defer pool.Close()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						copy(a.Data(), in)
						copy(ks.Plane(0).Data(), keys)
						b.StartTimer()
						pool.Run(func(c *forkjoin.Ctx) { srt.SortScheduled(c, sp, a, ks, scr, kscr, 0, n) })
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
				})
			}
		}
	}
}
