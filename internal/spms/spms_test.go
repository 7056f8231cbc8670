package spms

import (
	"sort"
	"testing"
	"testing/quick"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/prng"
)

func randElems(seed uint64, n int, distinct bool) []obliv.Elem {
	src := prng.New(seed)
	out := make([]obliv.Elem, n)
	seen := map[uint64]bool{}
	for i := range out {
		k := src.Uint64() >> 4
		if distinct {
			for seen[k] {
				k = src.Uint64() >> 4
			}
			seen[k] = true
		} else {
			k = src.Uint64n(uint64(n/4 + 1))
		}
		out[i] = obliv.Elem{Key: k, Val: uint64(i), Kind: obliv.Real}
	}
	return out
}

func checkSorted(t *testing.T, name string, got []obliv.Elem, orig []obliv.Elem) {
	t.Helper()
	want := make([]uint64, len(orig))
	for i, e := range orig {
		want[i] = e.Key
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range got {
		if got[i].Key != want[i] {
			t.Fatalf("%s: position %d = %d, want %d", name, i, got[i].Key, want[i])
		}
	}
}

func TestSampleSortSizes(t *testing.T) {
	for _, n := range []int{0, 1, 2, 10, 47, 100, 1000, 5000} {
		raw := randElems(uint64(n)+1, n, true)
		sp := mem.NewSpace()
		a := mem.FromSlice(sp, raw)
		SampleSort(forkjoin.Serial(), sp, a, 7)
		checkSorted(t, "samplesort", a.Data(), raw)
	}
}

func TestSampleSortDuplicates(t *testing.T) {
	raw := randElems(3, 2000, false)
	sp := mem.NewSpace()
	a := mem.FromSlice(sp, raw)
	SampleSort(forkjoin.Serial(), sp, a, 9)
	checkSorted(t, "samplesort-dup", a.Data(), raw)
}

func TestMergeSortSizes(t *testing.T) {
	for _, n := range []int{0, 1, 2, 10, 47, 100, 1000, 5000} {
		raw := randElems(uint64(n)+2, n, true)
		sp := mem.NewSpace()
		a := mem.FromSlice(sp, raw)
		MergeSort(forkjoin.Serial(), sp, a)
		checkSorted(t, "mergesort", a.Data(), raw)
	}
}

func TestMergeSortDuplicates(t *testing.T) {
	raw := randElems(5, 2000, false)
	sp := mem.NewSpace()
	a := mem.FromSlice(sp, raw)
	MergeSort(forkjoin.Serial(), sp, a)
	checkSorted(t, "mergesort-dup", a.Data(), raw)
}

func TestParallelMatchesSerial(t *testing.T) {
	raw := randElems(11, 4000, true)
	sp1 := mem.NewSpace()
	a1 := mem.FromSlice(sp1, raw)
	SampleSort(forkjoin.Serial(), sp1, a1, 3)
	sp2 := mem.NewSpace()
	a2 := mem.FromSlice(sp2, raw)
	forkjoin.RunParallel(4, func(c *forkjoin.Ctx) { SampleSort(c, sp2, a2, 3) })
	for i := range raw {
		if a1.Data()[i].Key != a2.Data()[i].Key {
			t.Fatalf("parallel mismatch at %d", i)
		}
	}
	sp3 := mem.NewSpace()
	a3 := mem.FromSlice(sp3, raw)
	forkjoin.RunParallel(4, func(c *forkjoin.Ctx) { MergeSort(c, sp3, a3) })
	for i := range raw {
		if a1.Data()[i].Key != a3.Data()[i].Key {
			t.Fatalf("mergesort parallel mismatch at %d", i)
		}
	}
}

func TestQuickProperty(t *testing.T) {
	f := func(seed uint64, n16 uint16) bool {
		n := int(n16%3000) + 1
		raw := randElems(seed, n, false)
		sp := mem.NewSpace()
		a := mem.FromSlice(sp, raw)
		SampleSort(forkjoin.Serial(), sp, a, seed)
		for i := 1; i < n; i++ {
			if a.Data()[i-1].Key > a.Data()[i].Key {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSortSpanShapes(t *testing.T) {
	// SampleSort's span should track log² n and MergeSort's log³ n: the
	// normalized factors must stay roughly flat across a 16x size change.
	// (Constants differ — SampleSort's partition tree is span-heavier at
	// laptop sizes — so shapes, not absolute spans, are compared; see
	// README, "Deviations from the paper", 2.)
	span := func(f func(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[obliv.Elem]), n int) float64 {
		raw := randElems(13, n, true)
		sp := mem.NewSpace()
		a := mem.FromSlice(sp, raw)
		m := forkjoin.RunMetered(forkjoin.MeterOpts{}, func(c *forkjoin.Ctx) { f(c, sp, a) })
		return float64(m.Span)
	}
	lg := func(n int) float64 {
		l := 0.0
		for v := 1; v < n; v <<= 1 {
			l++
		}
		return l
	}
	const n1, n2 = 1 << 9, 1 << 13
	ss := func(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[obliv.Elem]) { SampleSort(c, sp, a, 1) }
	ms := func(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[obliv.Elem]) { MergeSort(c, sp, a) }
	ssF1 := span(ss, n1) / (lg(n1) * lg(n1))
	ssF2 := span(ss, n2) / (lg(n2) * lg(n2))
	msF1 := span(ms, n1) / (lg(n1) * lg(n1) * lg(n1))
	msF2 := span(ms, n2) / (lg(n2) * lg(n2) * lg(n2))
	if ssF2 > 2.2*ssF1 {
		t.Fatalf("samplesort span outgrows log²n: factor %.2f -> %.2f", ssF1, ssF2)
	}
	if msF2 > 2.2*msF1 {
		t.Fatalf("mergesort span outgrows log³n: factor %.2f -> %.2f", msF1, msF2)
	}
}

func TestMergeSortCacheBeatsSampleSort(t *testing.T) {
	// MergeSort streams; SampleSort scatters. Under a small cache the
	// mergesort must miss less.
	const n = 1 << 13
	const M, B = 1 << 9, 1 << 4
	raw := randElems(17, n, true)
	misses := func(f func(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[obliv.Elem])) int64 {
		sp := mem.NewSpace()
		a := mem.FromSlice(sp, raw)
		m := forkjoin.RunMetered(forkjoin.MeterOpts{CacheM: M, CacheB: B}, func(c *forkjoin.Ctx) { f(c, sp, a) })
		return m.CacheMisses
	}
	ss := misses(func(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[obliv.Elem]) { SampleSort(c, sp, a, 1) })
	ms := misses(func(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[obliv.Elem]) { MergeSort(c, sp, a) })
	if ms >= ss {
		t.Fatalf("mergesort misses %d not below samplesort misses %d", ms, ss)
	}
}

func TestWorkLinearithmic(t *testing.T) {
	work := func(n int) int64 {
		raw := randElems(1, n, true)
		sp := mem.NewSpace()
		a := mem.FromSlice(sp, raw)
		m := forkjoin.RunMetered(forkjoin.MeterOpts{}, func(c *forkjoin.Ctx) { MergeSort(c, sp, a) })
		return m.Work
	}
	w1, w2 := work(1<<11), work(1<<12)
	r := float64(w2) / float64(w1)
	if r < 1.8 || r > 2.6 {
		t.Fatalf("mergesort work doubling ratio %.2f outside [1.8, 2.6]", r)
	}
}

func TestInsecureAdapters(t *testing.T) {
	raw := randElems(23, 500, true)
	for name, f := range map[string]func(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[obliv.Elem]){
		"sample": InsecureSampleSort(5),
		"merge":  InsecureMergeSort(),
	} {
		sp := mem.NewSpace()
		a := mem.FromSlice(sp, raw)
		f(forkjoin.Serial(), sp, a)
		checkSorted(t, name, a.Data(), raw)
	}
}
