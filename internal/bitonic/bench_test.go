package bitonic

import (
	"fmt"
	"testing"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
)

// BenchmarkBitonicLeaf sorts 2^15 width-1 TiePos elements through the keyed
// cache-agnostic network at several serial-leaf sizes, on the serial
// executor and on a 2-worker pool. It is the measurement behind DefaultLeaf:
// the leaf is where the raw block comparator runs, so a larger leaf trades
// forks, transposes and their closures for straight-line runs until the
// leaf outgrows the cache. The closure leg runs the same network at
// DefaultLeaf with the key closure, per access — the reproduction's path.
func BenchmarkBitonicLeaf(b *testing.B) {
	const n = 1 << 15
	in := randElems(3, n)
	for i := range in {
		in[i].Aux = uint64(i)
	}
	sp := mem.NewSpace()
	a, scr := mem.Alloc[obliv.Elem](sp, n), mem.Alloc[obliv.Elem](sp, n)
	ks, kscr := obliv.AllocKeySchedule(sp, n, 1), obliv.AllocKeySchedule(sp, n, 1)
	pool := forkjoin.NewPool(2)
	defer pool.Close()
	execs := []struct {
		name string
		run  func(func(*forkjoin.Ctx))
	}{
		{"serial", func(fn func(*forkjoin.Ctx)) { fn(forkjoin.Serial()) }},
		{"pool2", pool.Run},
	}
	bench := func(name string, sort func(c *forkjoin.Ctx)) {
		for _, ex := range execs {
			b.Run(name+"/"+ex.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					copy(a.Data(), in)
					for j, e := range in {
						ks.Plane(0).Data()[j] = e.Key
					}
					b.StartTimer()
					ex.run(sort)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
			})
		}
	}
	for _, leaf := range []int{32, 256, 512, 1024, 2048, 4096} {
		bench(fmt.Sprintf("leaf=%d", leaf), func(c *forkjoin.Ctx) { SortCAKeyed(c, a, scr, ks, kscr, 0, n, true, leaf) })
	}
	bench("closure", func(c *forkjoin.Ctx) { SortCA(c, a, scr, 0, n, true, DefaultLeaf, keyFn) })
}
