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

// directGather is the reference read: memory[addrs[i]], or ⊥.
func directGather(memory, addrs []uint64) []obliv.Elem {
	out := make([]obliv.Elem, len(addrs))
	for i, a := range addrs {
		out[i] = obliv.Elem{Key: a, Aux: uint64(i), Kind: obliv.Filler}
		if a < uint64(len(memory)) {
			out[i].Val, out[i].Kind = memory[a], obliv.Real
		}
	}
	return out
}

// gatherCase draws p addresses into s cells — few distinct ones, so
// duplicates are common, and about one in six out of range — and three
// memory contents.
func gatherCase(seed uint64, s, p int) (addrs []uint64, mems [3][]uint64) {
	src := prng.New(seed)
	addrs = make([]uint64, p)
	for i := range addrs {
		addrs[i] = src.Uint64n(uint64(s)/2 + 1)
		if src.Uint64n(6) == 0 {
			addrs[i] = uint64(s) + src.Uint64n(4)
		}
	}
	for k := range mems {
		mems[k] = make([]uint64, s)
		for i := range mems[k] {
			mems[k][i] = src.Uint64()
		}
	}
	return addrs, mems
}

// TestGathererMatchesGatherAndDirect: one Gatherer reused over three memory
// contents returns, each time, the values of a fresh Gather's result, and
// both match direct indexing — the Gatherer's Values memory[addrs[i]], or 0
// where the test's own address check says ⊥, and Gather Key = the
// requested address, Kind ⊥ out of range —
// for power-of-two and other request counts, p = 1, out-of-range and
// duplicate addresses, on the serial and pool executors.
func TestGathererMatchesGatherAndDirect(t *testing.T) {
	sizes := []int{1, 2, 3, 5, 8, 13, 31, 64, 100}
	execs := []struct {
		name string
		run  func(func(c *forkjoin.Ctx))
	}{
		{"serial", func(f func(c *forkjoin.Ctx)) { f(forkjoin.Serial()) }},
		{"pool", func(f func(c *forkjoin.Ctx)) { forkjoin.RunParallel(4, f) }},
	}
	seed := uint64(0)
	for _, s := range sizes {
		for _, p := range sizes {
			seed++
			addrs, mems := gatherCase(seed, s, p)
			for _, ex := range execs {
				label := fmt.Sprintf("s=%d p=%d on %s", s, p, ex.name)
				ex.run(func(c *forkjoin.Ctx) {
					sp := mem.NewSpace()
					a := mem.FromSlice(sp, slices.Clone(addrs))
					g := NewGatherer(c, sp, s, a, nil)
					for k, m := range mems {
						memory := mem.FromSlice(sp, slices.Clone(m))
						vals := slices.Clone(g.Values(c, sp, memory).Data())
						fresh := Gather(c, sp, memory, a, nil).Data()
						want := directGather(m, addrs)
						for i := range want {
							if fresh[i] != want[i] {
								t.Fatalf("%s memory %d request %d: fresh Gather %+v, want %+v", label, k, i, fresh[i], want[i])
							}
							var v uint64 // ⊥ reads 0
							if addrs[i] < uint64(s) {
								v = m[addrs[i]]
							}
							if vals[i] != v {
								t.Fatalf("%s memory %d request %d: reused gatherer read %d, want %d", label, k, i, vals[i], v)
							}
						}
					}
				})
			}
		}
	}
}

// TestGathererTraceOblivious: building a gatherer and gathering twice
// touches the same addresses whatever the addresses requested and the
// memory contents — random addresses with duplicates, every request at one
// address (all ties), and all-distinct addresses, in range and out.
func TestGathererTraceOblivious(t *testing.T) {
	const s, p = 20, 37
	run := func(addrs []uint64, seed uint64) *forkjoin.Metrics {
		_, mems := gatherCase(seed, s, p)
		sp := mem.NewSpace()
		return forkjoin.RunMetered(forkjoin.MeterOpts{EnableTrace: true}, func(c *forkjoin.Ctx) {
			g := NewGatherer(c, sp, s, mem.FromSlice(sp, addrs), nil)
			g.Values(c, sp, mem.FromSlice(sp, mems[0]))
			g.Values(c, sp, mem.FromSlice(sp, mems[1]))
		})
	}
	random1, _ := gatherCase(1, s, p)
	random2, _ := gatherCase(2, s, p)
	tied := make([]uint64, p)
	distinct := make([]uint64, p)
	for i := range p {
		tied[i] = 7
		distinct[i] = uint64(p - 1 - i) // 0..19 in range, 20..36 out of range
	}
	want := run(random1, 1).Trace
	for _, c := range []struct {
		name  string
		addrs []uint64
	}{{"random", random2}, {"tie-heavy", tied}, {"all-distinct", distinct}} {
		if !run(c.addrs, 3).Trace.Equal(want) {
			t.Fatalf("%s addresses: the gatherer's access pattern depends on the addresses or the memory", c.name)
		}
	}
}

// TestGathererValuesAllocs: a warmed gatherer's gather allocates no work
// array — the send-receive's planes, swap record and propagation carrier
// and the un-sort's planes are the gatherer's own — only the small Go
// objects of its fork tree (the closures of the elementwise passes, merge
// and un-merge layers, scan sweeps and un-sort), a count fixed by the
// shape: at most maxValuesAllocs, and fewer bytes in all than one word
// plane of the work length, on the serial executor over alternating
// memory contents.
func TestGathererValuesAllocs(t *testing.T) {
	const s, p = 600, 1024
	c := forkjoin.Serial()
	addrs, mems := gatherCase(5, s, p)
	sp := mem.NewSpace()
	g := NewGatherer(c, sp, s, mem.FromSlice(sp, addrs), nil)
	m := [2]*mem.Array[uint64]{mem.FromSlice(sp, mems[0]), mem.FromSlice(sp, mems[1])}
	g.Values(c, sp, m[0])
	const runs = 20
	k := 0
	gather := func() {
		k++
		g.Values(c, sp, m[k%2])
	}
	allocs := testing.AllocsPerRun(runs, gather)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		gather()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	plane := uint64(8 * obliv.NextPow2(s+p))
	if allocs > maxValuesAllocs || bytes >= plane {
		t.Fatalf("a warmed gather allocates %v objects, %d bytes; want at most %d objects and under one %d-byte work plane", allocs, bytes, maxValuesAllocs, plane)
	}
}

// maxValuesAllocs bounds a warmed serial gather's or scatter's Go
// allocations at (s, p) = (600, 1024): about three per elementwise pass,
// sort call and scan level. A merge or un-merge layer of at most obliv's
// pass grain of comparators runs as one leaf with no fork closure.
const maxValuesAllocs = 80
