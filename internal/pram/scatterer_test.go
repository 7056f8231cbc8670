package pram

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/prng"
)

// executors are the three executors a reused work space must agree on.
var executors = []struct {
	name string
	run  func(func(c *forkjoin.Ctx))
}{
	{"serial", func(f func(c *forkjoin.Ctx)) { f(forkjoin.Serial()) }},
	{"pool", func(f func(c *forkjoin.Ctx)) { forkjoin.RunParallel(2, f) }},
	{"metered", func(f func(c *forkjoin.Ctx)) { forkjoin.RunMetered(forkjoin.MeterOpts{}, f) }},
}

// scatterCase draws p write requests into s cells: few distinct addresses
// and priorities, so ties on (address, priority) are common; priorities at
// and above 2^63 half the time; about one request in six out of range —
// just past s, or at InfKey or beyond 2^63 — and one in eight a no-op
// filler.
func scatterCase(seed uint64, s, p int) []obliv.Elem {
	src := prng.New(seed)
	reqs := make([]obliv.Elem, p)
	for i := range reqs {
		e := obliv.Elem{Key: src.Uint64n(uint64(s)/2 + 1), Val: src.Uint64(), Aux: src.Uint64n(4), Kind: obliv.Real}
		if src.Uint64n(2) == 0 {
			e.Aux += 1 << 63
		}
		switch src.Uint64n(6) {
		case 0:
			e.Key = []uint64{uint64(s), uint64(s) + 3, obliv.InfKey, 1<<63 + 5}[src.Uint64n(4)]
		case 1:
			e.Key = ^uint64(0)
		}
		if src.Uint64n(8) == 0 {
			e.Kind = obliv.Filler
		}
		reqs[i] = e
	}
	return reqs
}

// fill writes reqs into w's request planes as a caller does: a filler
// requests InfKey.
func fill(c *forkjoin.Ctx, w *Scatterer, reqs []obliv.Elem) {
	addr, prio, val := w.Requests()
	for i, e := range reqs {
		a := e.Key
		if e.Kind != obliv.Real {
			a = obliv.InfKey
		}
		addr.Set(c, i, a)
		prio.Set(c, i, e.Aux)
		val.Set(c, i, e.Val)
	}
}

// TestScattererMatchesScatterResolve: one Scatterer reused over four
// rounds of changing requests — ties on (address, priority), priorities at
// and above 2^63, out-of-range addresses, fillers — leaves memory exactly
// as a fresh ScatterResolve or ScatterResolveMin of the same requests does,
// tied winners included, for power-of-two and other request counts, on
// its own router and on a larger shared one, on the serial, pool and
// metered executors.
func TestScattererMatchesScatterResolve(t *testing.T) {
	sizes := []int{1, 2, 3, 8, 13, 64, 100}
	seed := uint64(0)
	for _, s := range sizes {
		for _, p := range sizes {
			for _, combineMin := range []bool{false, true} {
				for _, shared := range []bool{false, true} {
					seed++
					for _, ex := range executors {
						label := fmt.Sprintf("s=%d p=%d min=%t shared=%t on %s", s, p, combineMin, shared, ex.name)
						ex.run(func(c *forkjoin.Ctx) {
							sp := mem.NewSpace()
							var route *obliv.Router
							if shared {
								route = obliv.NewRouter(sp, 2*s, 2*p)
							}
							w := NewScatterer(sp, s, p, route)
							src := prng.New(seed)
							reused := mem.Alloc[uint64](sp, s)
							for i := range s {
								reused.Data()[i] = src.Uint64()
							}
							fresh := mem.FromSlice(sp, slices.Clone(reused.Data()))
							for round := range 4 {
								reqs := scatterCase(seed*8+uint64(round), s, p)
								fill(c, w, reqs)
								r := mem.FromSlice(sp, reqs)
								if combineMin {
									w.ResolveMin(c, sp, reused)
									ScatterResolveMin(c, sp, fresh, r, nil)
								} else {
									w.Resolve(c, sp, reused)
									ScatterResolve(c, sp, fresh, r)
								}
								if !slices.Equal(reused.Data(), fresh.Data()) {
									t.Fatalf("%s round %d: reused scatterer wrote\n %v\nfresh ScatterResolve\n %v", label, round, reused.Data(), fresh.Data())
								}
							}
						})
					}
				}
			}
		}
	}
}

// TestGathererReaddressMatchesFresh: a Gatherer re-sorted onto three more
// address lists of its length — duplicates, out-of-range addresses — reads
// each time what a fresh Gatherer of that list reads, on its own router and
// on a larger shared one, on the serial, pool and metered executors.
func TestGathererReaddressMatchesFresh(t *testing.T) {
	sizes := []int{1, 2, 3, 5, 8, 31, 64, 100}
	seed := uint64(100)
	for _, s := range sizes {
		for _, p := range sizes {
			for _, shared := range []bool{false, true} {
				seed++
				for _, ex := range executors {
					label := fmt.Sprintf("s=%d p=%d shared=%t on %s", s, p, shared, ex.name)
					ex.run(func(c *forkjoin.Ctx) {
						sp := mem.NewSpace()
						var route *obliv.Router
						if shared {
							route = obliv.NewRouter(sp, 3*s, 2*p)
						}
						var g *Gatherer
						for round := range 4 {
							addrs, mems := gatherCase(seed*8+uint64(round), s, p)
							a := mem.FromSlice(sp, addrs)
							if g == nil {
								g = NewGatherer(c, sp, s, a, route)
							} else {
								g.Readdress(c, sp, a)
							}
							fg := NewGatherer(c, sp, s, a, nil)
							for k, m := range mems[:2] {
								memory := mem.FromSlice(sp, m)
								got := slices.Clone(g.Values(c, sp, memory).Data())
								want := fg.Values(c, sp, memory).Data()
								if !slices.Equal(got, want) {
									t.Fatalf("%s round %d memory %d: readdressed gatherer read\n %v\nfresh gatherer\n %v", label, round, k, got, want)
								}
							}
						}
					})
				}
			}
		}
	}
}

// TestScattererTraceOblivious: three rounds of a reused Scatterer on a
// shared router touch the same addresses whatever the requests and the
// memory contents — random requests, every request at one address and
// priority (all ties), all out of range, all fillers — in both modes.
func TestScattererTraceOblivious(t *testing.T) {
	const s, p = 20, 37
	run := func(reqs func(round int) []obliv.Elem, combineMin bool) *forkjoin.Metrics {
		return forkjoin.RunMetered(forkjoin.MeterOpts{EnableTrace: true}, func(c *forkjoin.Ctx) {
			sp := mem.NewSpace()
			w := NewScatterer(sp, s, p, obliv.NewRouter(sp, s, 2*p))
			memory := mem.Alloc[uint64](sp, s)
			for round := range 3 {
				fill(c, w, reqs(round))
				if combineMin {
					w.ResolveMin(c, sp, memory)
				} else {
					w.Resolve(c, sp, memory)
				}
			}
		})
	}
	same := func(e obliv.Elem) func(int) []obliv.Elem {
		return func(round int) []obliv.Elem {
			reqs := make([]obliv.Elem, p)
			for i := range reqs {
				reqs[i] = e
				reqs[i].Val = uint64(round*p + i)
			}
			return reqs
		}
	}
	for _, combineMin := range []bool{false, true} {
		want := run(func(round int) []obliv.Elem { return scatterCase(uint64(round), s, p) }, combineMin).Trace
		for _, tc := range []struct {
			name string
			reqs func(int) []obliv.Elem
		}{
			{"random", func(round int) []obliv.Elem { return scatterCase(uint64(10+round), s, p) }},
			{"tie-heavy", same(obliv.Elem{Key: 7, Aux: 1<<63 + 2, Kind: obliv.Real})},
			{"out-of-range", same(obliv.Elem{Key: 1 << 63, Kind: obliv.Real})},
			{"fillers", same(obliv.Elem{})},
		} {
			if !run(tc.reqs, combineMin).Trace.Equal(want) {
				t.Fatalf("min=%t %s requests: the scatterer's access pattern depends on the requests", combineMin, tc.name)
			}
		}
	}
}

// TestGathererReaddressTraceOblivious: a gatherer built on one address
// list, re-sorted onto two more and read after each, on a shared router,
// touches the same addresses whatever the lists and the memory contents.
func TestGathererReaddressTraceOblivious(t *testing.T) {
	const s, p = 20, 37
	run := func(lists [3][]uint64) *forkjoin.Metrics {
		_, mems := gatherCase(9, s, p)
		return forkjoin.RunMetered(forkjoin.MeterOpts{EnableTrace: true}, func(c *forkjoin.Ctx) {
			sp := mem.NewSpace()
			memory := mem.FromSlice(sp, mems[0])
			g := NewGatherer(c, sp, s, mem.FromSlice(sp, lists[0]), obliv.NewRouter(sp, s, 2*p))
			g.Values(c, sp, memory)
			for _, l := range lists[1:] {
				g.Readdress(c, sp, mem.FromSlice(sp, l))
				g.Values(c, sp, memory)
			}
		})
	}
	list := func(seed uint64) []uint64 {
		a, _ := gatherCase(seed, s, p)
		return a
	}
	tied := make([]uint64, p)
	distinct := make([]uint64, p)
	for i := range p {
		tied[i] = 7
		distinct[i] = uint64(p - 1 - i)
	}
	want := run([3][]uint64{list(1), list(2), list(3)}).Trace
	if !run([3][]uint64{list(4), tied, distinct}).Trace.Equal(want) {
		t.Fatal("the readdressed gatherer's access pattern depends on the addresses")
	}
}

// TestScattererAllocs: a warmed scatterer's write allocates no work array
// — the request planes, sort scratch, routed plane and send-receive work
// space are its own — only the small Go objects of its fork tree, at most
// maxValuesAllocs, and fewer bytes in all than one word plane of the work
// length, on the serial executor over alternating requests, in both
// modes.
func TestScattererAllocs(t *testing.T) {
	const s, p = 600, 1024
	c := forkjoin.Serial()
	sp := mem.NewSpace()
	memory := mem.Alloc[uint64](sp, s)
	reqs := [2][]obliv.Elem{scatterCase(1, s, p), scatterCase(2, s, p)}
	for _, combineMin := range []bool{false, true} {
		w := NewScatterer(sp, s, p, nil)
		k := 0
		write := func() {
			k++
			fill(c, w, reqs[k%2])
			if combineMin {
				w.ResolveMin(c, sp, memory)
			} else {
				w.Resolve(c, sp, memory)
			}
		}
		write()
		const runs = 20
		allocs := testing.AllocsPerRun(runs, write)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			write()
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / runs
		plane := uint64(8 * obliv.NextPow2(s+p))
		if allocs > maxValuesAllocs || bytes >= plane {
			t.Fatalf("min=%t: a warmed write allocates %v objects, %d bytes; want at most %d objects and under one %d-byte work plane", combineMin, allocs, bytes, maxValuesAllocs, plane)
		}
	}
}
