package pram

import (
	"testing"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/prng"
)

// BenchmarkGather times one batched read of 2^14 random addresses from 2^10
// cells — the shape of the graph layer's endpoint gathers, many requests
// against few cells, where the request sort dominates and the cells are
// only merged in — serial, on the production bitonic network: "fresh" is
// Gather (a recorded request sort, the merge and un-merge, an un-sort),
// "reused" one more Values of a Gatherer built outside the timer (the
// static endpoint gather of a graph round: merge, un-merge and un-sort
// only).
func BenchmarkGather(b *testing.B) {
	const s, p = 1 << 10, 1 << 14
	sp := mem.NewSpace()
	src := prng.New(5)
	memory := mem.Alloc[uint64](sp, s)
	addrs := mem.Alloc[uint64](sp, p)
	for i := range memory.Data() {
		memory.Data()[i] = src.Uint64()
	}
	for i := range addrs.Data() {
		addrs.Data()[i] = src.Uint64n(s)
	}
	c := forkjoin.Serial()
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Gather(c, mem.NewSpace(), memory, addrs, nil)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/p, "ns/req")
	})
	b.Run("reused", func(b *testing.B) {
		g := NewGatherer(c, mem.NewSpace(), s, addrs, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Values(c, mem.NewSpace(), memory)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/p, "ns/req")
	})
}

// BenchmarkScatterResolveMin times one min-combining conflict-resolved
// write of 2^13 random requests into as many cells (one request sort, then
// a merge with the cells), serial, on the production bitonic network:
// "oneshot" is ScatterResolveMin (request elements loaded into fresh
// planes, a fresh router), "reused" one more ResolveMin of a Scatterer
// built outside the timer, its request planes refilled each time (the hook
// scatter of a graph round). Both report allocations.
func BenchmarkScatterResolveMin(b *testing.B) {
	const p = 1 << 13
	sp := mem.NewSpace()
	src := prng.New(6)
	memory := mem.Alloc[uint64](sp, p)
	reqs := mem.Alloc[obliv.Elem](sp, p)
	for i := range reqs.Data() {
		reqs.Data()[i] = obliv.Elem{Key: src.Uint64n(p), Val: src.Uint64n(p), Aux: uint64(i), Kind: obliv.Real}
	}
	for i := range memory.Data() {
		memory.Data()[i] = p
	}
	c := forkjoin.Serial()
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ScatterResolveMin(c, mem.NewSpace(), memory, reqs, nil)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/p, "ns/req")
	})
	b.Run("reused", func(b *testing.B) {
		w := NewScatterer(mem.NewSpace(), p, p, nil)
		addr, prio, val := w.Requests()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, e := range reqs.Data() {
				addr.Set(c, j, e.Key)
				prio.Set(c, j, e.Aux)
				val.Set(c, j, e.Val)
			}
			w.ResolveMin(c, mem.NewSpace(), memory)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/p, "ns/req")
	})
}
