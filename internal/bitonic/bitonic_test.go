package bitonic

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/obliv/oblivtest"
	"oblivmc/internal/prng"
)

var keyFn = func(e obliv.Elem) uint64 { return e.Key }

// keyWords is keyFn as a width-1 key-schedule emitter.
var keyWords = func(e obliv.Elem, out []uint64) { out[0] = e.Key }

// atLeaf is the CacheAgnostic sorter at an explicit serial-leaf size (the
// metered executor forces leaf 2 whatever it is).
type atLeaf int

func (l atLeaf) Name() string { return fmt.Sprintf("bitonic-cache-agnostic leaf=%d", int(l)) }

func (l atLeaf) Sort(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[obliv.Elem], lo, n int, key func(obliv.Elem) uint64) {
	obliv.SortKeyed(c, sp, a.View(lo, n), n, key, l)
}

func (l atLeaf) SortScheduled(c *forkjoin.Ctx, _ *mem.Space, a *mem.Array[obliv.Elem], ks *obliv.KeySchedule, scr *mem.Array[obliv.Elem], kscr *obliv.KeySchedule, lo, n int) {
	SortCAKeyed(c, a, scr, ks, kscr, lo, n, true, int(l))
}

// planeNet is one of the Theorem E.1 ablation's networks, sorting a key
// plane (plane 0; any further plane carried) the way the ablation runs it.
type planeNet struct {
	name string
	sort func(c *forkjoin.Ctx, sp *mem.Space, ks *obliv.KeySchedule, lo, n int)
}

var (
	planeCA = planeNet{"cache-agnostic", func(c *forkjoin.Ctx, sp *mem.Space, ks *obliv.KeySchedule, lo, n int) {
		SortCAPlanes(c, ks, obliv.AllocKeySchedule(sp, n, ks.Width()), 1, nil, lo, n, true, 0)
	}}
	naive = planeNet{"naive", func(c *forkjoin.Ctx, _ *mem.Space, ks *obliv.KeySchedule, lo, n int) {
		SortIterative(c, ks, lo, n)
	}}
	oddEven = planeNet{"odd-even", func(c *forkjoin.Ctx, _ *mem.Space, ks *obliv.KeySchedule, lo, n int) {
		SortOddEven(c, ks, lo, n)
	}}
)

func randElems(seed uint64, n int) []obliv.Elem {
	src := prng.New(seed)
	out := make([]obliv.Elem, n)
	for i := range out {
		out[i] = obliv.Elem{Key: src.Uint64n(uint64(4 * n)), Val: uint64(i), Kind: obliv.Real}
	}
	return out
}

// randKeys is the keys of randElems(seed, n).
func randKeys(seed uint64, n int) []uint64 { return keysOf(randElems(seed, n)) }

func keysOf(es []obliv.Elem) []uint64 {
	keys := make([]uint64, len(es))
	for i, e := range es {
		keys[i] = e.Key
	}
	return keys
}

// keyPlane is a one-plane schedule in sp holding a copy of keys.
func keyPlane(sp *mem.Space, keys []uint64) *obliv.KeySchedule {
	return obliv.NewKeySchedule(mem.FromSlice(sp, keys), len(keys), 1)
}

func assertSorted(t *testing.T, keys []uint64, label string) {
	t.Helper()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			t.Fatalf("%s: not sorted at %d (%d > %d)", label, i, keys[i-1], keys[i])
		}
	}
}

func assertSameMultiset(t *testing.T, got, want []uint64, label string) {
	t.Helper()
	g := append([]uint64(nil), got...)
	w := append([]uint64(nil), want...)
	sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: multiset changed", label)
		}
	}
}

func TestCacheAgnosticSorts(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 32, 128, 1024} {
		for seed := uint64(0); seed < 3; seed++ {
			raw := randElems(seed*100+uint64(n), n)
			s := mem.NewSpace()
			a := mem.FromSlice(s, raw)
			CacheAgnostic{}.Sort(forkjoin.Serial(), s, a, 0, n, keyFn)
			assertSorted(t, keysOf(a.Data()), "cache-agnostic")
			assertSameMultiset(t, keysOf(a.Data()), keysOf(raw), "cache-agnostic")
		}
	}
}

// runPlaneNet sorts random key planes through one of the Theorem E.1
// ablation's networks.
func runPlaneNet(t *testing.T, nw planeNet) {
	t.Helper()
	for _, n := range []int{1, 2, 4, 8, 32, 128, 1024} {
		for seed := uint64(0); seed < 3; seed++ {
			raw := randKeys(seed*100+uint64(n), n)
			s := mem.NewSpace()
			ks := keyPlane(s, raw)
			nw.sort(forkjoin.Serial(), s, ks, 0, n)
			assertSorted(t, ks.Plane(0).Data(), nw.name)
			assertSameMultiset(t, ks.Plane(0).Data(), raw, nw.name)
		}
	}
}

func TestIterativeSorts(t *testing.T) { runPlaneNet(t, naive) }

func TestOddEvenSorts(t *testing.T) { runPlaneNet(t, oddEven) }

func TestCacheAgnosticSmallLeaf(t *testing.T) {
	// Force deep recursion with a tiny leaf to exercise the transpose path
	// on every level, including odd log2 sizes.
	for _, n := range []int{8, 16, 32, 64, 128, 256, 512} {
		raw := randKeys(uint64(n), n)
		s := mem.NewSpace()
		ks := keyPlane(s, raw)
		SortCAPlanes(forkjoin.Serial(), ks, obliv.AllocKeySchedule(s, n, 1), 1, nil, 0, n, true, 2)
		assertSorted(t, ks.Plane(0).Data(), "leaf=2")
		assertSameMultiset(t, ks.Plane(0).Data(), raw, "leaf=2")
	}
}

func TestNaiveSorterSubrange(t *testing.T) {
	raw := randKeys(9, 48)
	s := mem.NewSpace()
	ks := keyPlane(s, raw)
	SortIterative(forkjoin.Serial(), ks, 8, 32)
	got := ks.Plane(0).Data()
	// Outside the range untouched.
	for i := 0; i < 8; i++ {
		if got[i] != raw[i] {
			t.Fatal("prefix modified")
		}
	}
	for i := 40; i < 48; i++ {
		if got[i] != raw[i] {
			t.Fatal("suffix modified")
		}
	}
	assertSorted(t, got[8:40], "subrange")
}

func TestCacheAgnosticSubrange(t *testing.T) {
	raw := randElems(11, 96)
	s := mem.NewSpace()
	a := mem.FromSlice(s, raw)
	atLeaf(4).Sort(forkjoin.Serial(), s, a, 16, 64, keyFn)
	for i := 0; i < 16; i++ {
		if a.Data()[i] != raw[i] {
			t.Fatal("prefix modified")
		}
	}
	for i := 80; i < 96; i++ {
		if a.Data()[i] != raw[i] {
			t.Fatal("suffix modified")
		}
	}
	assertSorted(t, keysOf(a.Data()[16:80]), "subrange")
}

func TestMergeCAOnBitonicInput(t *testing.T) {
	// ascending then descending halves form a bitonic sequence.
	for _, n := range []int{8, 64, 256} {
		raw := randElems(uint64(n)+1, n)
		sort.Slice(raw[:n/2], func(i, j int) bool { return raw[i].Key < raw[j].Key })
		sort.Slice(raw[n/2:], func(i, j int) bool { return raw[n/2+i].Key > raw[n/2+j].Key })
		s := mem.NewSpace()
		a := mem.FromSlice(s, append(make([]obliv.Elem, 3), raw...)) // lo = 3
		scratch := mem.Alloc[obliv.Elem](s, n)
		MergeCA(forkjoin.Serial(), a, scratch, 3, n, true, 4, keyFn)
		assertSorted(t, keysOf(a.Data()[3:]), "mergeCA")
		assertSameMultiset(t, keysOf(a.Data()[3:]), keysOf(raw), "mergeCA")
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	raw := randElems(13, 2048)
	s1 := mem.NewSpace()
	a1 := mem.FromSlice(s1, raw)
	CacheAgnostic{}.Sort(forkjoin.Serial(), s1, a1, 0, 2048, keyFn)
	s2 := mem.NewSpace()
	a2 := mem.FromSlice(s2, raw)
	forkjoin.RunParallel(4, func(c *forkjoin.Ctx) {
		CacheAgnostic{}.Sort(c, s2, a2, 0, 2048, keyFn)
	})
	for i := range raw {
		if a1.Data()[i].Key != a2.Data()[i].Key {
			t.Fatalf("parallel/serial mismatch at %d", i)
		}
	}
}

func TestStability01Principle(t *testing.T) {
	// 0/1 principle: a comparator network sorts all inputs iff it sorts
	// all 0/1 inputs. Exhaustively check n=16 via the Schedule.
	const n = 16
	layers := Schedule(n)
	for mask := 0; mask < 1<<n; mask++ {
		v := make([]uint8, n)
		for i := 0; i < n; i++ {
			v[i] = uint8((mask >> i) & 1)
		}
		for _, layer := range layers {
			for _, cmp := range layer {
				x, y := v[cmp.I], v[cmp.J]
				if (x > y) == cmp.Asc {
					v[cmp.I], v[cmp.J] = y, x
				}
			}
		}
		for i := 1; i < n; i++ {
			if v[i-1] > v[i] {
				t.Fatalf("network fails on mask %b", mask)
			}
		}
	}
}

// TestExecutedNetworks01Principle applies the 0–1 principle to the
// executed networks rather than to the Schedule data: every 0/1 input of
// n = 2, 4, 8, 16 elements through Stages + Merge on the keyed comparator,
// and every 0/1 key plane through SortIterative, SortOddEven, the plane
// sort (SortCAPlanes over one key plane and a carried one, and over two
// key planes) and Stages + Merge on the plane comparator, on the serial,
// 2-worker pool and metered executors. Stages(n, n/2) must leave the two
// halves sorted in opposite directions and the Merge must finish the sort;
// a carried word must stay with its key. Equal keys are full ties (no
// TiePos order), so each comparator acts on the 0/1 keys alone.
func TestExecutedNetworks01Principle(t *testing.T) {
	oblivtest.SameOnEveryExecutor(t, "stages+merge keyed", func(c *forkjoin.Ctx, sp *mem.Space) []uint64 {
		var out []uint64 // every output, 0/1 keys packed one word per input
		for n := 2; n <= 16; n <<= 1 {
			a := mem.Alloc[obliv.Elem](sp, n)
			ks := obliv.AllocKeySchedule(sp, n, 1)
			for mask := 0; mask < 1<<n; mask++ {
				for i := range n {
					a.Data()[i] = obliv.Elem{Key: uint64(mask >> i & 1), Kind: obliv.Real}
					ks.Plane(0).Data()[i] = uint64(mask >> i & 1)
				}
				k := obliv.NewCexKernel(c, a, ks)
				obliv.Stages(c, k, n, n/2)
				for i := 1; i < n/2; i++ {
					if d := a.Data(); d[i-1].Key > d[i].Key || d[n/2+i-1].Key < d[n/2+i].Key {
						t.Errorf("n=%d: Stages(n, n/2) left the halves unsorted: %v", n, d) // Errorf: may run on a pool worker
						break
					}
				}
				obliv.Merge(c, k, 0, 1, n, n, false)
				var w uint64
				for i, e := range a.Data() {
					if i > 0 && a.Data()[i-1].Key > e.Key {
						t.Errorf("stages+merge keyed n=%d: mask %b not sorted: %v", n, mask, a.Data())
						break
					}
					w |= e.Key << i
				}
				out = append(out, w)
			}
		}
		return out
	})
	planeNets := []struct {
		name string
		k    int
		sort func(c *forkjoin.Ctx, ws, wscr *obliv.KeySchedule, k, n int)
	}{
		{"naive", 1, func(c *forkjoin.Ctx, ws, _ *obliv.KeySchedule, _, n int) {
			SortIterative(c, ws, 0, n)
		}},
		{"odd-even", 1, func(c *forkjoin.Ctx, ws, _ *obliv.KeySchedule, _, n int) {
			SortOddEven(c, ws, 0, n)
		}},
		{"plane sort k=1", 1, func(c *forkjoin.Ctx, ws, wscr *obliv.KeySchedule, k, n int) {
			SortCAPlanes(c, ws, wscr, k, nil, 0, n, true, 0)
		}},
		{"plane sort k=2", 2, func(c *forkjoin.Ctx, ws, wscr *obliv.KeySchedule, k, n int) {
			SortCAPlanes(c, ws, wscr, k, nil, 0, n, true, 0)
		}},
		{"stages+merge planes", 1, func(c *forkjoin.Ctx, ws, _ *obliv.KeySchedule, k, n int) {
			kern := obliv.NewCexKernelPlanes(c, ws, k, nil)
			obliv.Stages(c, kern, n, n/2)
			key := ws.Plane(0).Data()
			for i := 1; i < n/2; i++ {
				if key[i-1] > key[i] || key[n/2+i-1] < key[n/2+i] {
					t.Errorf("n=%d: Stages(n, n/2) left the halves unsorted: %v", n, key) // Errorf: may run on a pool worker
					break
				}
			}
			obliv.Merge(c, kern, 0, 1, n, n, false)
		}},
	}
	for _, nw := range planeNets {
		oblivtest.SameOnEveryExecutor(t, nw.name, func(c *forkjoin.Ctx, sp *mem.Space) []uint64 {
			var out []uint64 // every output, 0/1 keys packed one word per input
			for n := 2; n <= 16; n <<= 1 {
				ws, wscr := obliv.AllocKeySchedule(sp, n, 2), obliv.AllocKeySchedule(sp, n, 2)
				key, other := ws.Plane(0).Data(), ws.Plane(1).Data()
				for mask := 0; mask < 1<<n; mask++ {
					for i := range n {
						// k=1: plane 1 is carried, the key's complement; k=2:
						// plane 1 is the low key bit, the input's mirror.
						key[i] = uint64(mask >> i & 1)
						other[i] = 1 - key[i]
						if nw.k == 2 {
							other[i] = uint64(mask >> (n - 1 - i) & 1)
						}
					}
					nw.sort(c, ws, wscr, nw.k, n)
					var w uint64
					for i := range n {
						if i > 0 && (key[i-1] > key[i] || nw.k == 2 && key[i-1] == key[i] && other[i-1] > other[i]) {
							t.Errorf("%s n=%d: mask %b not sorted: %v %v", nw.name, n, mask, key, other)
							break
						}
						if nw.k == 1 && other[i] != 1-key[i] {
							t.Errorf("%s n=%d: mask %b: the carried word left its key", nw.name, n, mask)
							break
						}
						w |= (key[i] | other[i]<<1) << (2 * i)
					}
					out = append(out, w)
				}
			}
			return out
		})
	}
}

func TestScheduleShape(t *testing.T) {
	// For n=16 the network has 1+2+3+4 = 10 layers of 8 comparators each —
	// the structure of Figure 1.
	layers := Schedule(16)
	if len(layers) != 10 {
		t.Fatalf("layers = %d, want 10", len(layers))
	}
	for i, l := range layers {
		if len(l) != 8 {
			t.Fatalf("layer %d has %d comparators, want 8", i, len(l))
		}
	}
}

func TestTraceObliviousAllVariants(t *testing.T) {
	const n = 256
	run := func(sort func(c *forkjoin.Ctx, sp *mem.Space, seed uint64)) func(uint64) *forkjoin.Metrics {
		return func(seed uint64) *forkjoin.Metrics {
			s := mem.NewSpace()
			return forkjoin.RunMetered(forkjoin.MeterOpts{EnableTrace: true}, func(c *forkjoin.Ctx) {
				sort(c, s, seed)
			})
		}
	}
	variants := map[string]func(uint64) *forkjoin.Metrics{
		"CacheAgnostic.Sort": run(func(c *forkjoin.Ctx, s *mem.Space, seed uint64) {
			CacheAgnostic{}.Sort(c, s, mem.FromSlice(s, randElems(seed, n)), 0, n, keyFn)
		}),
	}
	for _, nw := range []planeNet{planeCA, naive, oddEven} {
		variants[nw.name] = run(func(c *forkjoin.Ctx, s *mem.Space, seed uint64) {
			nw.sort(c, s, keyPlane(s, randKeys(seed, n)), 0, n)
		})
	}
	for name, m := range variants {
		if !m(1).Trace.Equal(m(2).Trace) {
			t.Fatalf("%s: access pattern depends on data", name)
		}
	}
}

// TestScheduledMatchesPlaneSort pins the keysched contract of the
// production network: SortScheduled against a cached key schedule must
// produce exactly the permutation the one-key-plane sort (SortCAPlanes,
// the Theorem E.1 ablation's network) produces at the same leaf, read off
// an index plane it carries (same comparator schedule, same outcomes: the
// plane sort has no TiePos, and randElems leaves equal keys full TiePos
// ties), and must keep the key array in lockstep.
func TestScheduledMatchesPlaneSort(t *testing.T) {
	variants := []struct {
		v    obliv.ScheduledSorter
		leaf int
	}{{CacheAgnostic{}, 0}, {atLeaf(2), 2}}
	for _, vl := range variants {
		v := vl.v
		for _, n := range []int{1, 2, 8, 64, 256, 1024} {
			for seed := uint64(0); seed < 3; seed++ {
				raw := randElems(seed*31+uint64(n), n)

				s1 := mem.NewSpace()
				ws, wscr := obliv.AllocKeySchedule(s1, n, 2), obliv.AllocKeySchedule(s1, n, 2)
				for i, e := range raw {
					ws.Plane(0).Data()[i], ws.Plane(1).Data()[i] = e.Key, uint64(i)
				}
				if n > 1 {
					SortCAPlanes(forkjoin.Serial(), ws, wscr, 1, nil, 0, n, true, vl.leaf)
				}

				s2 := mem.NewSpace()
				got := mem.FromSlice(s2, raw)
				ks := obliv.AllocKeySchedule(s2, n, 1)
				obliv.BuildKeySchedule(forkjoin.Serial(), got, ks, 0, n, keyWords)
				scr := mem.Alloc[obliv.Elem](s2, n)
				kscr := obliv.AllocKeySchedule(s2, n, 1)
				v.SortScheduled(forkjoin.Serial(), s2, got, ks, scr, kscr, 0, n)

				for i := 0; i < n; i++ {
					if want := raw[ws.Plane(1).Data()[i]]; got.Data()[i] != want {
						t.Fatalf("%s n=%d seed=%d: keyed sort diverges from the plane sort at %d (%v vs %v)",
							v.Name(), n, seed, i, got.Data()[i], want)
					}
					if ks.Plane(0).Data()[i] != keyFn(got.Data()[i]) {
						t.Fatalf("%s n=%d seed=%d: key schedule out of lockstep at %d", v.Name(), n, seed, i)
					}
				}
			}
		}
	}
}

// TestScheduledSubrange checks the keyed networks honor [lo, lo+n) bounds.
func TestScheduledSubrange(t *testing.T) {
	variants := []obliv.ScheduledSorter{atLeaf(4)}
	for _, v := range variants {
		raw := randElems(17, 96)
		s := mem.NewSpace()
		a := mem.FromSlice(s, raw)
		ks := obliv.AllocKeySchedule(s, 96, 1)
		obliv.BuildKeySchedule(forkjoin.Serial(), a, ks, 16, 64, keyWords)
		scr := mem.Alloc[obliv.Elem](s, 64)
		kscr := obliv.AllocKeySchedule(s, 64, 1)
		v.SortScheduled(forkjoin.Serial(), s, a, ks, scr, kscr, 16, 64)
		for i := 0; i < 16; i++ {
			if a.Data()[i] != raw[i] {
				t.Fatalf("%s: prefix modified", v.Name())
			}
		}
		for i := 80; i < 96; i++ {
			if a.Data()[i] != raw[i] {
				t.Fatalf("%s: suffix modified", v.Name())
			}
		}
		assertSorted(t, keysOf(a.Data()[16:80]), v.Name()+" keyed subrange")
	}
}

// TestScheduledTraceOblivious extends the variant trace test to the keyed
// path: the cached-key comparator always reads and rewrites all four
// positions, so the view must be data-independent.
func TestScheduledTraceOblivious(t *testing.T) {
	const n = 128
	v := CacheAgnostic{}
	run := func(seed uint64) *forkjoin.Metrics {
		raw := randElems(seed, n)
		s := mem.NewSpace()
		a := mem.FromSlice(s, raw)
		ks := obliv.AllocKeySchedule(s, n, 1)
		scr := mem.Alloc[obliv.Elem](s, n)
		kscr := obliv.AllocKeySchedule(s, n, 1)
		return forkjoin.RunMetered(forkjoin.MeterOpts{EnableTrace: true}, func(c *forkjoin.Ctx) {
			obliv.BuildKeySchedule(c, a, ks, 0, n, keyWords)
			v.SortScheduled(c, s, a, ks, scr, kscr, 0, n)
		})
	}
	if !run(1).Trace.Equal(run(2).Trace) {
		t.Fatalf("%s: keyed access pattern depends on data", v.Name())
	}
}

func TestWorkMatchesComparatorCount(t *testing.T) {
	// Bitonic on n=2^k has exactly n/2 * k(k+1)/2 comparators; each does
	// 2 reads + 2 writes + 1 comparison op = 5 work in the iterative net.
	const n, k = 64, 6
	comparators := int64(n / 2 * k * (k + 1) / 2)
	ks := keyPlane(mem.NewSpace(), randKeys(3, n))
	m := forkjoin.RunMetered(forkjoin.MeterOpts{}, func(c *forkjoin.Ctx) {
		SortIterative(c, ks, 0, n)
	})
	if m.MemOps != 4*comparators {
		t.Fatalf("memops = %d, want %d", m.MemOps, 4*comparators)
	}
}

// TestOddEvenWorkMatchesComparatorCount pins the odd–even network's size
// the way TestWorkMatchesComparatorCount pins the naive one: on n = 2^k it
// has (k² − k + 4)·2^(k−2) − 1 comparators, each 2 reads + 2 writes.
func TestOddEvenWorkMatchesComparatorCount(t *testing.T) {
	for k := 1; k <= 10; k++ {
		n := 1 << k
		comparators := int64((k*k-k+4)<<k/4 - 1)
		ks := keyPlane(mem.NewSpace(), randKeys(uint64(k), n))
		m := forkjoin.RunMetered(forkjoin.MeterOpts{}, func(c *forkjoin.Ctx) {
			SortOddEven(c, ks, 0, n)
		})
		if m.MemOps != 4*comparators {
			t.Fatalf("n=%d: memops = %d, want %d", n, m.MemOps, 4*comparators)
		}
	}
}

func TestCacheAgnosticBeatsNaiveOnCache(t *testing.T) {
	// Theorem E.1: for n >> M, the recursive variant's misses scale like
	// (n/B)·log_M n·log(n/M) vs the naive (n/B)·log² n, so the ratio
	// recursive/naive must (a) stay below 1 and (b) shrink as n grows.
	const M, B = 1 << 8, 1 << 4
	miss := func(s planeNet, n int) int64 {
		sp := mem.NewSpace()
		ks := keyPlane(sp, randKeys(5, n))
		m := forkjoin.RunMetered(forkjoin.MeterOpts{CacheM: M, CacheB: B}, func(c *forkjoin.Ctx) {
			s.sort(c, sp, ks, 0, n)
		})
		return m.CacheMisses
	}
	// Normalizing each variant's misses by its own theoretical bound must
	// give a roughly flat constant across sizes; and the recursive variant
	// must win outright.
	lg := func(x int) float64 {
		l := 0.0
		for v := 1; v < x; v <<= 1 {
			l++
		}
		return l
	}
	caTheory := func(n int) float64 {
		return float64(n) / B * (lg(n) / lg(M)) * (lg(n) - lg(M))
	}
	naiveTheory := func(n int) float64 {
		return float64(n) / B * lg(n) * lg(n) / 2
	}
	const n1, n2 = 1 << 11, 1 << 14
	caF1 := float64(miss(planeCA, n1)) / caTheory(n1)
	caF2 := float64(miss(planeCA, n2)) / caTheory(n2)
	nvF1 := float64(miss(naive, n1)) / naiveTheory(n1)
	nvF2 := float64(miss(naive, n2)) / naiveTheory(n2)
	if caF2 > 1.7*caF1 || caF1 > 1.7*caF2 {
		t.Fatalf("cache-agnostic misses do not track the E.1 bound: factors %.2f vs %.2f", caF1, caF2)
	}
	if nvF2 > 1.7*nvF1 || nvF1 > 1.7*nvF2 {
		t.Fatalf("naive misses do not track the (n/B)log²n bound: factors %.2f vs %.2f", nvF1, nvF2)
	}
	if m1, m2 := miss(planeCA, n2), miss(naive, n2); m1 >= m2 {
		t.Fatalf("cache-agnostic (%d misses) not better than naive (%d)", m1, m2)
	}
}

func TestCacheAgnosticBeatsNaiveOnSpan(t *testing.T) {
	// Span: O(log²n · loglog n) vs O(log³ n).
	const n = 1 << 12
	span := func(s planeNet) int64 {
		sp := mem.NewSpace()
		ks := keyPlane(sp, randKeys(6, n))
		m := forkjoin.RunMetered(forkjoin.MeterOpts{}, func(c *forkjoin.Ctx) {
			s.sort(c, sp, ks, 0, n)
		})
		return m.Span
	}
	if ca, nv := span(planeCA), span(naive); ca >= nv {
		t.Fatalf("cache-agnostic span %d not below naive %d", ca, nv)
	}
}

func TestQuickRandomInputsAllSorters(t *testing.T) {
	f := func(seed uint64, sizeExp uint8) bool {
		n := 1 << (sizeExp%8 + 1) // 2..256
		raw := randElems(seed, n)
		s := mem.NewSpace()
		a := mem.FromSlice(s, raw)
		atLeaf(4).Sort(forkjoin.Serial(), s, a, 0, n, keyFn)
		sorted := [][]uint64{keysOf(a.Data())}
		for _, v := range []planeNet{naive, oddEven} {
			ks := keyPlane(s, keysOf(raw))
			v.sort(forkjoin.Serial(), s, ks, 0, n)
			sorted = append(sorted, ks.Plane(0).Data())
		}
		for _, keys := range sorted {
			for i := 1; i < n; i++ {
				if keys[i-1] > keys[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNonPow2Panics(t *testing.T) {
	ks := keyPlane(mem.NewSpace(), randKeys(1, 12))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two n")
		}
	}()
	SortIterative(forkjoin.Serial(), ks, 0, 12)
}

// wideKeyWords emits the (Key, Key2) two-word lexicographic schedule.
var wideKeyWords = func(e obliv.Elem, out []uint64) { out[0], out[1] = e.Key, e.Key2 }

// randWideElems draws elements whose two key columns exercise the full
// word range (including values far above 2^40) with plenty of column-0
// ties, so the lexicographic comparator's second word matters.
func randWideElems(seed uint64, n int) []obliv.Elem {
	src := prng.New(seed)
	out := make([]obliv.Elem, n)
	for i := range out {
		out[i] = obliv.Elem{
			Key:  src.Uint64n(8) * 0x9e3779b97f4a7c15, // few huge col-0 values
			Key2: src.Uint64n(uint64(2 * n)),
			Val:  uint64(i),
			Kind: obliv.Real,
		}
	}
	return out
}

// TestScheduledWideKeysMatchReference pins the width-2 schedule contract
// (production network and the selection-network oracle): sorting against a two-word schedule must order
// elements by (Key, Key2) lexicographically and keep both planes in
// lockstep.
func TestScheduledWideKeysMatchReference(t *testing.T) {
	variants := []obliv.ScheduledSorter{CacheAgnostic{}, atLeaf(2), obliv.SelectionNetwork{}}
	for _, v := range variants {
		for _, n := range []int{1, 2, 8, 64, 256} {
			raw := randWideElems(uint64(n)*7+1, n)

			want := append([]obliv.Elem(nil), raw...)
			sort.SliceStable(want, func(i, j int) bool {
				if want[i].Key != want[j].Key {
					return want[i].Key < want[j].Key
				}
				return want[i].Key2 < want[j].Key2
			})

			s := mem.NewSpace()
			a := mem.FromSlice(s, raw)
			ks := obliv.AllocKeySchedule(s, n, 2)
			obliv.BuildKeySchedule(forkjoin.Serial(), a, ks, 0, n, wideKeyWords)
			scr := mem.Alloc[obliv.Elem](s, n)
			kscr := obliv.AllocKeySchedule(s, n, 2)
			v.SortScheduled(forkjoin.Serial(), s, a, ks, scr, kscr, 0, n)

			for i := 0; i < n; i++ {
				g := a.Data()[i]
				if g.Key != want[i].Key || g.Key2 != want[i].Key2 {
					t.Fatalf("%s n=%d: wide sort out of order at %d: (%d,%d) want (%d,%d)",
						v.Name(), n, i, g.Key, g.Key2, want[i].Key, want[i].Key2)
				}
				if ks.Plane(0).Data()[i] != g.Key || ks.Plane(1).Data()[i] != g.Key2 {
					t.Fatalf("%s n=%d: wide key schedule out of lockstep at %d", v.Name(), n, i)
				}
			}
		}
	}
}

// TestScheduledWideTraceOblivious extends the keyed trace test to width 2:
// the wide comparator reads and rewrites every word of both positions
// unconditionally, so the view must be data-independent at any width.
func TestScheduledWideTraceOblivious(t *testing.T) {
	const n = 128
	v := CacheAgnostic{}
	run := func(seed uint64) *forkjoin.Metrics {
		raw := randWideElems(seed, n)
		s := mem.NewSpace()
		a := mem.FromSlice(s, raw)
		ks := obliv.AllocKeySchedule(s, n, 2)
		scr := mem.Alloc[obliv.Elem](s, n)
		kscr := obliv.AllocKeySchedule(s, n, 2)
		return forkjoin.RunMetered(forkjoin.MeterOpts{EnableTrace: true}, func(c *forkjoin.Ctx) {
			obliv.BuildKeySchedule(c, a, ks, 0, n, wideKeyWords)
			v.SortScheduled(c, s, a, ks, scr, kscr, 0, n)
		})
	}
	if !run(1).Trace.Equal(run(2).Trace) {
		t.Fatalf("%s: wide keyed access pattern depends on data", v.Name())
	}
}

// TestScheduledTiePosIsStable pins the TiePos tie-break contract the
// relational key sorts rely on: every keyed sort breaks ties by the
// elements' (Kind, Tag, Aux), so it must order duplicate keys by tag then
// original position, with fillers at the tail — i.e. behave like a stable
// sort — for every network.
func TestScheduledTiePosIsStable(t *testing.T) {
	variants := []obliv.ScheduledSorter{CacheAgnostic{}, atLeaf(2), obliv.SelectionNetwork{}}
	for _, v := range variants {
		for _, n := range []int{2, 8, 64, 256} {
			src := prng.New(uint64(n) * 13)
			raw := make([]obliv.Elem, n)
			for i := range raw {
				raw[i] = obliv.Elem{Key: src.Uint64n(4), Tag: uint32(src.Uint64n(2)), Aux: uint64(i), Kind: obliv.Real}
				if src.Uint64n(5) == 0 {
					raw[i] = obliv.Elem{} // filler
				}
			}
			want := append([]obliv.Elem(nil), raw...)
			sort.SliceStable(want, func(i, j int) bool {
				xf, yf := want[i].Kind != obliv.Real, want[j].Kind != obliv.Real
				if xf != yf {
					return yf
				}
				if xf {
					return false
				}
				if want[i].Key != want[j].Key {
					return want[i].Key < want[j].Key
				}
				if want[i].Tag != want[j].Tag {
					return want[i].Tag < want[j].Tag
				}
				return want[i].Aux < want[j].Aux
			})

			s := mem.NewSpace()
			a := mem.FromSlice(s, raw)
			ks := obliv.AllocKeySchedule(s, n, 1)
			kscr := obliv.AllocKeySchedule(s, n, 1)
			obliv.BuildKeySchedule(forkjoin.Serial(), a, ks, 0, n, func(e obliv.Elem, out []uint64) {
				if e.Kind != obliv.Real {
					out[0] = obliv.InfKey
					return
				}
				out[0] = e.Key
			})
			scr := mem.Alloc[obliv.Elem](s, n)
			v.SortScheduled(forkjoin.Serial(), s, a, ks, scr, kscr, 0, n)

			for i := 0; i < n; i++ {
				if a.Data()[i] != want[i] {
					t.Fatalf("%s n=%d: TiePos sort not stable at %d: %+v want %+v",
						v.Name(), n, i, a.Data()[i], want[i])
				}
			}
		}
	}
}
