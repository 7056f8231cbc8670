package core

import (
	"fmt"
	"testing"
	"time"

	"oblivmc/internal/bitonic"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/prng"
	"oblivmc/internal/spms"
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

// BenchmarkShuffleStages splits one warmed 2^18-slot, width-1 ShuffleSorter
// sort into its stages — permutation draw, Beneš routing, network
// application, tie-word fill and keyed sample sort — on 1- and 2-worker
// pools, and reports each stage's ns/elem (the stage split ROADMAP quotes).
func BenchmarkShuffleStages(b *testing.B) {
	const n = 1 << 18
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sp := mem.NewSpace()
			a, ks := shuffleInput(sp, prng.New(n), n, n-n/8, 1)
			in := snapshotKeyed(a, ks)
			scr, kscr := sortScratch(sp, ks, n)
			s := &ShuffleSorter{FixedSeed: fixedSeed(7), Crossover: 2}
			pool := forkjoin.NewPool(workers)
			defer pool.Close()
			pool.Run(func(c *forkjoin.Ctx) { s.SortScheduled(c, sp, a, ks, scr, kscr, 0, n) }) // warm the caches
			stages := []string{"perm", "route", "apply", "tie", "samplesort"}
			var spent [5]time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(a.Data(), in.Elems)
				copy(ks.Plane(0).Data(), in.Planes[0])
				b.StartTimer()
				src := s.coins()
				pl := s.benesPlanFor(n)
				tie, tscr := s.tieScratch(sp, n)
				var p []int
				steps := [5]func(c *forkjoin.Ctx){
					func(*forkjoin.Ctx) { p = s.perm(src, n) },
					func(c *forkjoin.Ctx) { routeBenesInto(c, pl, p, &s.route) },
					func(c *forkjoin.Ctx) { pl.apply(c, a, scr, ks, kscr) },
					func(c *forkjoin.Ctx) { s.fillTies(c, src, tie) },
					func(c *forkjoin.Ctx) {
						spms.SampleSortScheduled(c, sp, a, ks, tie, scr, kscr, tscr, 0, n, src.Uint64())
					},
				}
				for j, step := range steps {
					t0 := time.Now()
					pool.Run(step)
					spent[j] += time.Since(t0)
				}
			}
			for j, name := range stages {
				b.ReportMetric(float64(spent[j].Nanoseconds())/float64(b.N)/n, name+"-ns/elem")
			}
		})
	}
}

// BenchmarkBenesSwitch applies a 2^15-position network on the serial
// executor with every switch clear, every switch set, and random settings,
// and reports ns per switch. The kernel is branch-free, so the three must
// cost the same (as BenchmarkCexRun's sorted / random / reverse runs do
// for the comparator).
func BenchmarkBenesSwitch(b *testing.B) {
	const n = 1 << 15
	src := prng.New(3)
	for _, mode := range []string{"clear", "set", "random"} {
		b.Run(mode, func(b *testing.B) {
			sp := mem.NewSpace()
			a, ks := benesFixture(sp, n, 1)
			scr, kscr := sortScratch(sp, ks, n)
			pl := newBenesPlan(n)
			for _, layer := range pl.layers {
				for j := range layer {
					layer[j] = mode == "set" || (mode == "random" && src.Uint64()&1 == 1)
				}
			}
			c := forkjoin.Serial()
			pl.apply(c, a, scr, ks, kscr) // fault the buffers in before timing
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pl.apply(c, a, scr, ks, kscr)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(pl.layers)*n/2), "ns/switch")
		})
	}
}
