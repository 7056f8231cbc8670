package bitonic

import (
	"fmt"
	"testing"
	_ "unsafe" // go:linkname

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
)

// BenchmarkBitonicLeaf sorts 2^15 width-1 TiePos elements through the keyed
// cache-agnostic network at several serial-leaf sizes, on the serial
// executor and on a 2-worker pool. It is the measurement behind DefaultLeaf:
// the leaf is where the raw block comparator runs, so a larger leaf trades
// forks, transposes and their closures for straight-line runs until the
// leaf outgrows the cache. The plane leg runs the same network at
// DefaultLeaf over the key plane alone — the Theorem E.1 ablation's path.
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
	bench("plane", func(c *forkjoin.Ctx) { SortCAPlanes(c, ks, kscr, 1, nil, 0, n, true, DefaultLeaf) })
}

// vectorKernels is package obliv's switch between its AVX-512 plane and
// replay chunk loops and the portable Go ones (obliv.useAVX512, set from
// CPUID and unexported: no caller picks a path). BenchmarkBitonicRecord
// turns it off for its portable legs.
//
//go:linkname vectorKernels oblivmc/internal/obliv.useAVX512
var vectorKernels bool

// BenchmarkBitonicRecord prices the PRAM layer's recorded plane sort and
// its un-sort against the keyed element sort they stand beside, at 2^10
// (one leaf) and 2^14 (the graph workload's gather requests), on the
// serial executor and a 2-worker pool. The planes leg sorts one key word
// and carries one word, recording one swap bit per comparator — two words
// and a bit per comparator side where the keyed leg moves a 48-byte
// element and its key word and recomputes TiePos; the un-sort reads the
// bits back and moves one word plane with no key and no compare. Both run
// on the detected chunk loops (AVX-512 where the CPU has it) and, as
// planes-portable and unsort-portable, on the portable Go loops.
func BenchmarkBitonicRecord(b *testing.B) {
	pool := forkjoin.NewPool(2)
	defer pool.Close()
	execs := []struct {
		name string
		run  func(func(*forkjoin.Ctx))
	}{
		{"w1", func(fn func(*forkjoin.Ctx)) { fn(forkjoin.Serial()) }},
		{"w2", pool.Run},
	}
	for _, n := range []int{1 << 10, 1 << 14} {
		in := randElems(5, n)
		for i := range in {
			in[i].Aux = uint64(i)
		}
		sp := mem.NewSpace()
		a, scr := mem.Alloc[obliv.Elem](sp, n), mem.Alloc[obliv.Elem](sp, n)
		ks, kscr := obliv.AllocKeySchedule(sp, n, 1), obliv.AllocKeySchedule(sp, n, 1)
		ws, wscr := obliv.AllocKeySchedule(sp, n, 2), obliv.AllocKeySchedule(sp, n, 2)
		rec := mem.Alloc[uint64](sp, RecordWords(forkjoin.Serial(), n, 0))
		load := func() {
			copy(a.Data(), in)
			for j, e := range in {
				ks.Plane(0).Data()[j] = e.Key
			}
		}
		loadPlanes := func() {
			for j, e := range in {
				ws.Plane(0).Data()[j], ws.Plane(1).Data()[j] = e.Key, e.Val
			}
		}
		sortPlanes := func(c *forkjoin.Ctx) { SortCAPlanes(c, ws, wscr, 1, rec, 0, n, true, 0) }
		unsort := func(c *forkjoin.Ctx) { UnsortCA(c, ks, kscr, rec, 0, n, 0) }
		loadRecord := func() {
			loadPlanes()
			sortPlanes(forkjoin.Serial())
		}
		legs := []struct {
			name     string
			portable bool
			setup    func()
			run      func(c *forkjoin.Ctx)
		}{
			{"keyed", false, load, func(c *forkjoin.Ctx) { SortCAKeyed(c, a, scr, ks, kscr, 0, n, true, 0) }},
			{"planes", false, loadPlanes, sortPlanes},
			{"planes-portable", true, loadPlanes, sortPlanes},
			{"unsort", false, loadRecord, unsort},
			{"unsort-portable", true, loadRecord, unsort},
		}
		for _, leg := range legs {
			for _, ex := range execs {
				b.Run(fmt.Sprintf("n=%d/%s/%s", n, leg.name, ex.name), func(b *testing.B) {
					detected := vectorKernels
					defer func() { vectorKernels = detected }()
					vectorKernels = detected && !leg.portable
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						leg.setup()
						b.StartTimer()
						ex.run(leg.run)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
				})
			}
		}
	}
}

// BenchmarkIterativeNetworks sorts 2^12 keys through the Theorem E.1
// ablation's two layer-by-layer networks, the naive bitonic
// (SortIterative) and Batcher's odd–even (SortOddEven), over one key plane
// on the serial executor and on a 2-worker pool. Each layer is one
// obliv.Layer fork tree, so a pool leaf runs up to 1024 comparators.
func BenchmarkIterativeNetworks(b *testing.B) {
	const n = 1 << 12
	in := randKeys(7, n)
	ks := keyPlane(mem.NewSpace(), in)
	pool := forkjoin.NewPool(2)
	defer pool.Close()
	execs := []struct {
		name string
		run  func(func(*forkjoin.Ctx))
	}{
		{"serial", func(fn func(*forkjoin.Ctx)) { fn(forkjoin.Serial()) }},
		{"pool2", pool.Run},
	}
	nets := []struct {
		name string
		sort func(c *forkjoin.Ctx)
	}{
		{"naive", func(c *forkjoin.Ctx) { SortIterative(c, ks, 0, n) }},
		{"odd-even", func(c *forkjoin.Ctx) { SortOddEven(c, ks, 0, n) }},
	}
	for _, nw := range nets {
		for _, ex := range execs {
			b.Run(nw.name+"/"+ex.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					copy(ks.Plane(0).Data(), in)
					b.StartTimer()
					ex.run(nw.sort)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
			})
		}
	}
}
