package relops

import (
	"fmt"
	"testing"

	"oblivmc/internal/core"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/prng"
)

// BenchmarkTopK runs the top-k tournament against what it replaced — the
// full descValSched sort plus a cut at k — over 2^18 random records on a
// 2-worker pool. The sort is the production backend at that size (the
// shuffle-then-sort composition). ns/elem is per padded record.
func BenchmarkTopK(b *testing.B) {
	const n = 1 << 18
	recs := randRecords(prng.New(18), n, 1<<16, 1<<30)
	for _, k := range []int{10, 1 << 12, 1 << 17, 1 << 18} {
		for _, alg := range []struct {
			name string
			run  func(c *forkjoin.Ctx, sp *mem.Space, ar *Arena, r Rel)
		}{
			{"tournament", func(c *forkjoin.Ctx, sp *mem.Space, ar *Arena, r Rel) { topK(c, sp, ar, r.A, k) }},
			{"sort", func(c *forkjoin.Ctx, sp *mem.Space, ar *Arena, r Rel) {
				sortSched(c, sp, ar, r.A, descValSched(), &core.ShuffleSorter{})
				cutFrom(c, r.A, k)
			}},
		} {
			b.Run(fmt.Sprintf("k=%d/%s", k, alg.name), func(b *testing.B) {
				sp := mem.NewSpace()
				r := mustLoad(b, sp, recs)
				in := append(r.A.Data()[:0:0], r.A.Data()...)
				ar := NewArena()
				pool := forkjoin.NewPool(2)
				defer pool.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					copy(r.A.Data(), in)
					b.StartTimer()
					pool.Run(func(c *forkjoin.Ctx) { alg.run(c, sp, ar, r) })
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
			})
		}
	}
}
