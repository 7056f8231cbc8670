package core

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"oblivmc/internal/bitonic"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/prng"
)

// fixedSeed opts a test's ShuffleSorter into deterministic coins.
func fixedSeed(v uint64) *uint64 { return &v }

// benesFixture allocates an n-element array with Aux = position plus a
// width-w schedule whose word p of element i is a distinct function of
// (i, p), so any lockstep violation is visible.
func benesFixture(sp *mem.Space, n, w int) (*mem.Array[obliv.Elem], *obliv.KeySchedule) {
	a := mem.Alloc[obliv.Elem](sp, n)
	ks := obliv.AllocKeySchedule(sp, n, w)
	for i := 0; i < n; i++ {
		a.Data()[i] = obliv.Elem{Key: uint64(i) * 3, Aux: uint64(i), Kind: obliv.Real}
		for p := 0; p < w; p++ {
			ks.Plane(p).Data()[i] = uint64(i)*31 + uint64(p)*7 + 1
		}
	}
	return a, ks
}

func TestBenesAppliesPermutation(t *testing.T) {
	src := prng.New(11)
	for _, n := range []int{2, 4, 8, 16, 64, 256, 1024} {
		for _, w := range []int{1, 2} {
			for rep := 0; rep < 3; rep++ {
				sp := mem.NewSpace()
				a, ks := benesFixture(sp, n, w)
				scr := mem.Alloc[obliv.Elem](sp, n)
				kscr := obliv.AllocKeySchedule(sp, n, w)
				perm := src.Perm(n)
				routeBenes(perm).apply(forkjoin.Serial(), a, scr, ks, kscr)
				for i := 0; i < n; i++ {
					e := a.Data()[i]
					if int(e.Aux) != perm[i] {
						t.Fatalf("n=%d w=%d: position %d holds element %d, want perm[%d]=%d", n, w, i, e.Aux, i, perm[i])
					}
					for p := 0; p < w; p++ {
						if got, want := ks.Plane(p).Data()[i], uint64(perm[i])*31+uint64(p)*7+1; got != want {
							t.Fatalf("n=%d w=%d: schedule plane %d out of lockstep at %d: %d want %d", n, w, p, i, got, want)
						}
					}
				}
			}
		}
	}
}

// TestBenesTraceFixed asserts the permutation stage's strongest property:
// its instrumented trace is a fixed function of (n, width) — not just of
// the tape, but identical across *different permutations and contents*.
func TestBenesTraceFixed(t *testing.T) {
	const n, w = 128, 2
	run := func(seed uint64) *forkjoin.Metrics {
		sp := mem.NewSpace()
		a, ks := benesFixture(sp, n, w)
		for i := range a.Data() {
			a.Data()[i].Val = prng.Mix64(seed + uint64(i))
		}
		scr := mem.Alloc[obliv.Elem](sp, n)
		kscr := obliv.AllocKeySchedule(sp, n, w)
		perm := prng.New(seed).Perm(n)
		return forkjoin.RunMetered(forkjoin.MeterOpts{EnableTrace: true}, func(c *forkjoin.Ctx) {
			routeBenes(perm).apply(c, a, scr, ks, kscr)
		})
	}
	if !run(1).Trace.Equal(run(2).Trace) {
		t.Fatal("Beneš application trace depends on the permutation or contents")
	}
}

// shuffleInput builds n elements with nReal real records (duplicate-heavy
// keys drawn from content, distinct Aux) and identical zero fillers, plus
// the (key columns, fillers-last) schedule of the relational key sorts.
func shuffleInput(sp *mem.Space, src *prng.Source, n, nReal, w int) (*mem.Array[obliv.Elem], *obliv.KeySchedule) {
	a := mem.Alloc[obliv.Elem](sp, n)
	for i := 0; i < nReal; i++ {
		a.Data()[i] = obliv.Elem{
			Key:  src.Uint64n(5) * 0x9e3779b97f4a7c15 >> 1,
			Key2: src.Uint64n(3),
			Val:  src.Uint64(),
			Aux:  uint64(i),
			Kind: obliv.Real,
		}
	}
	ks := obliv.AllocKeySchedule(sp, n, w)
	obliv.BuildKeySchedule(forkjoin.Serial(), a, ks, 0, n, func(e obliv.Elem, out []uint64) {
		if e.Kind != obliv.Real {
			for p := range out {
				out[p] = obliv.InfKey
			}
			return
		}
		out[0] = e.Key
		if len(out) > 1 {
			out[1] = e.Key2
		}
	})
	return a, ks
}

// sortScratch allocates the caller-side scratch SortScheduled requires.
func sortScratch(sp *mem.Space, ks *obliv.KeySchedule, n int) (*mem.Array[obliv.Elem], *obliv.KeySchedule) {
	kscr := obliv.AllocKeySchedule(sp, n, ks.Width())
	return mem.Alloc[obliv.Elem](sp, n), kscr
}

// TestShuffleSorterMatchesBitonic is the backend-equivalence property: on
// the relational (keys..., TiePos) schedules the shuffle composition must
// produce the identical array the keyed bitonic network produces —
// element for element, including duplicate-heavy keys and filler tails —
// at both widths and across sizes straddling the forced crossover.
func TestShuffleSorterMatchesBitonic(t *testing.T) {
	src := prng.New(0x5eed)
	for _, n := range []int{2, 8, 32, 128, 512} {
		for _, w := range []int{1, 2} {
			for _, frac := range []int{0, 1, 2} {
				nReal := n - n*frac/4 // full, 3/4, 1/2 occupancy
				contentSeed := src.Uint64()

				mk := func() (*mem.Space, *mem.Array[obliv.Elem], *obliv.KeySchedule) {
					sp := mem.NewSpace()
					a, ks := shuffleInput(sp, prng.New(contentSeed), n, nReal, w)
					return sp, a, ks
				}

				sp1, a1, ks1 := mk()
				scr1, kscr1 := sortScratch(sp1, ks1, n)
				bitonic.CacheAgnostic{}.SortScheduled(forkjoin.Serial(), sp1, a1, ks1, scr1, kscr1, 0, n)

				sp2, a2, ks2 := mk()
				shuf := &ShuffleSorter{FixedSeed: fixedSeed(7), Crossover: 2}
				scr2, kscr2 := sortScratch(sp2, ks2, n)
				shuf.SortScheduled(forkjoin.Serial(), sp2, a2, ks2, scr2, kscr2, 0, n)

				for i := 0; i < n; i++ {
					if a1.Data()[i] != a2.Data()[i] {
						t.Fatalf("n=%d w=%d nReal=%d: backends diverge at %d:\nbitonic %+v\nshuffle %+v",
							n, w, nReal, i, a1.Data()[i], a2.Data()[i])
					}
					for p := 0; p < w; p++ {
						if ks1.Plane(p).Data()[i] != ks2.Plane(p).Data()[i] {
							t.Fatalf("n=%d w=%d: schedule plane %d out of lockstep after sort at %d", n, w, p, i)
						}
					}
				}
			}
		}
	}
}

// TestShuffleSorterFixedSeedTraceValueIndependent pins the fingerprint
// guarantee the backend does make at a fixed seed: the trace is independent
// of the key and payload *values* — two inputs whose keys are order-
// isomorphic but numerically disjoint, with unrelated payloads, produce
// identical views at every tested width. (Independence of the key *order*
// is distributional, supplied by the secret permutation; see the package
// comment.)
func TestShuffleSorterFixedSeedTraceValueIndependent(t *testing.T) {
	const n = 256
	for _, w := range []int{1, 2} {
		run := func(scale, bias, valSeed uint64) *forkjoin.Metrics {
			sp := mem.NewSpace()
			a := mem.Alloc[obliv.Elem](sp, n)
			for i := 0; i < n/2; i++ { // half occupancy: identical filler tail
				rank := uint64(i%7) * 13 // duplicate-heavy, same order both runs
				a.Data()[i] = obliv.Elem{
					Key:  rank*scale + bias,
					Key2: rank * scale,
					Val:  prng.Mix64(valSeed + uint64(i)),
					Aux:  uint64(i),
					Kind: obliv.Real,
				}
			}
			ks := obliv.AllocKeySchedule(sp, n, w)
			scr := mem.Alloc[obliv.Elem](sp, n)
			kscr := obliv.AllocKeySchedule(sp, n, w)
			shuf := &ShuffleSorter{FixedSeed: fixedSeed(42), Crossover: 2}
			return forkjoin.RunMetered(forkjoin.MeterOpts{EnableTrace: true}, func(c *forkjoin.Ctx) {
				obliv.BuildKeySchedule(c, a, ks, 0, n, func(e obliv.Elem, out []uint64) {
					if e.Kind != obliv.Real {
						for p := range out {
							out[p] = obliv.InfKey
						}
						return
					}
					out[0] = e.Key
					if len(out) > 1 {
						out[1] = e.Key2
					}
				})
				shuf.SortScheduled(c, sp, a, ks, scr, kscr, 0, n)
			})
		}
		if !run(1, 0, 1).Trace.Equal(run(1<<40, 5, 999).Trace) {
			t.Fatalf("w=%d: fixed-seed shuffle trace depends on key/payload values", w)
		}
	}
}

// TestShuffleSorterTraceShapeSensitive is the sanity inverse: a different
// length must change the view.
func TestShuffleSorterTraceShapeSensitive(t *testing.T) {
	run := func(n int) *forkjoin.Metrics {
		sp := mem.NewSpace()
		a, ks := shuffleInput(sp, prng.New(3), n, n, 1)
		shuf := &ShuffleSorter{FixedSeed: fixedSeed(9), Crossover: 2}
		scr, kscr := sortScratch(sp, ks, n)
		return forkjoin.RunMetered(forkjoin.MeterOpts{EnableTrace: true}, func(c *forkjoin.Ctx) {
			shuf.SortScheduled(c, sp, a, ks, scr, kscr, 0, n)
		})
	}
	if run(64).Trace.Equal(run(128).Trace) {
		t.Fatal("shuffle traces of different lengths coincide")
	}
}

// TestShuffleSorterPermutationUniform spot-checks ORP uniformity through
// the public surface: across seeds, the element originally at position 0
// must land uniformly (the Fisher–Yates draw feeding the network is
// uniform; this guards the network against systematically misrouting).
func TestShuffleSorterPermutationUniform(t *testing.T) {
	const n, runs = 32, 640
	counts := make([]int64, n)
	for r := 0; r < runs; r++ {
		sp := mem.NewSpace()
		a, ks := benesFixture(sp, n, 1)
		scr := mem.Alloc[obliv.Elem](sp, n)
		kscr := obliv.AllocKeySchedule(sp, n, 1)
		perm := prng.New(uint64(r) + 1000).Perm(n)
		routeBenes(perm).apply(forkjoin.Serial(), a, scr, ks, kscr)
		for pos, e := range a.Data() {
			if e.Aux == 0 {
				counts[pos]++
			}
		}
	}
	stat, dof := traceChi(counts)
	if stat > critChi(dof) {
		t.Fatalf("shuffled position not uniform: chi²=%.1f crit=%.1f", stat, critChi(dof))
	}
}

// TestShuffleSorterFallsBackBelowCrossover pins the public selection rule:
// below the crossover the fallback network runs (its trace is the bitonic
// network's), at or above it the shuffle trace appears.
func TestShuffleSorterFallsBackBelowCrossover(t *testing.T) {
	const n = 64
	run := func(srt obliv.ScheduledSorter) *forkjoin.Metrics {
		sp := mem.NewSpace()
		a, ks := shuffleInput(sp, prng.New(5), n, n, 1)
		scr := mem.Alloc[obliv.Elem](sp, n)
		kscr := obliv.AllocKeySchedule(sp, n, 1)
		return forkjoin.RunMetered(forkjoin.MeterOpts{EnableTrace: true}, func(c *forkjoin.Ctx) {
			srt.SortScheduled(c, sp, a, ks, scr, kscr, 0, n)
		})
	}
	above := &ShuffleSorter{FixedSeed: fixedSeed(1), Crossover: n + 1}
	scr := run(above)
	bit := run(bitonic.CacheAgnostic{})
	if !scr.Trace.Equal(bit.Trace) {
		t.Fatal("below the crossover the shuffle sorter must run the bitonic fallback")
	}
	at := &ShuffleSorter{FixedSeed: fixedSeed(1), Crossover: n}
	if run(at).Trace.Equal(bit.Trace) {
		t.Fatal("at the crossover the shuffle path must run (trace differs from bitonic)")
	}
}

// TestShuffleSorterSortSubrange pins the closure-keyed Sorter path at
// lo > 0: only [lo, lo+n) is sorted by key, the prefix and suffix stay
// intact. (No tie order is asserted: a closure-key network never promised
// one.)
func TestShuffleSorterSortSubrange(t *testing.T) {
	const lo, n, total = 16, 64, 96
	src := prng.New(8)
	sp := mem.NewSpace()
	a := mem.Alloc[obliv.Elem](sp, total)
	for i := 0; i < total; i++ {
		a.Data()[i] = obliv.Elem{Key: src.Uint64n(9), Aux: uint64(i), Kind: obliv.Real}
	}
	raw := append([]obliv.Elem(nil), a.Data()...)
	shuf := &ShuffleSorter{FixedSeed: fixedSeed(4), Crossover: 2}
	shuf.Sort(forkjoin.Serial(), sp, a, lo, n, func(e obliv.Elem) uint64 { return e.Key })
	for i := 0; i < lo; i++ {
		if a.Data()[i] != raw[i] {
			t.Fatalf("prefix modified at %d", i)
		}
	}
	for i := lo + n; i < total; i++ {
		if a.Data()[i] != raw[i] {
			t.Fatalf("suffix modified at %d", i)
		}
	}
	for i := lo + 1; i < lo+n; i++ {
		x, y := a.Data()[i-1], a.Data()[i]
		if x.Key > y.Key {
			t.Fatalf("subrange not sorted at %d: %+v then %+v", i, x, y)
		}
	}
}

// TestShuffleSorterDefaultSecretCoins pins the security default: with no
// FixedSeed every sort draws fresh crypto/rand coins, so the sort is still
// correct, and two identically constructed sorters over the same input do
// NOT replay the same permutation — their views differ. (A replayed
// permutation across runs is exactly what would let a trace observer
// correlate key order; deterministic replay is the explicit FixedSeed
// opt-in.)
func TestShuffleSorterDefaultSecretCoins(t *testing.T) {
	const n = 256
	run := func() *forkjoin.Metrics {
		sp := mem.NewSpace()
		a, ks := shuffleInput(sp, prng.New(6), n, n, 1)
		shuf := &ShuffleSorter{Crossover: 2}
		scr, kscr := sortScratch(sp, ks, n)
		m := forkjoin.RunMetered(forkjoin.MeterOpts{EnableTrace: true}, func(c *forkjoin.Ctx) {
			shuf.SortScheduled(c, sp, a, ks, scr, kscr, 0, n)
		})
		for i := 1; i < n; i++ {
			x, y := a.Data()[i-1], a.Data()[i]
			if x.Key > y.Key || (x.Key == y.Key && x.Aux > y.Aux) {
				t.Fatalf("default-coins sort out of order at %d: %+v then %+v", i, x, y)
			}
		}
		return m
	}
	if run().Trace.Equal(run().Trace) {
		t.Fatal("two default sorters replayed an identical view — permutations must be fresh secrets per sort")
	}
}

// TestBenesRouteIntoMatchesFresh pins the routing-buffer reuse refactor:
// rerouting a cached (dirty) plan through routeBenesInto must produce
// switch settings identical to a fresh routeBenes, at every size and
// across back-to-back permutations sharing the buffers.
func TestBenesRouteIntoMatchesFresh(t *testing.T) {
	src := prng.New(17)
	var rs routeScratch
	for _, n := range []int{2, 4, 8, 64, 256, 1024} {
		pl := newBenesPlan(n)
		for rep := 0; rep < 3; rep++ {
			perm := src.Perm(n)
			routeBenesInto(forkjoin.Serial(), pl, perm, &rs)
			want := routeBenes(perm)
			for l := range want.layers {
				for j := range want.layers[l] {
					if pl.layers[l][j] != want.layers[l][j] {
						t.Fatalf("n=%d rep=%d: layer %d switch %d diverges from fresh routing", n, rep, l, j)
					}
				}
			}
		}
	}
}

// TestBenesLevelBufferReuseFlatAllocs asserts the satellite property: once
// a ShuffleSorter has routed a size, re-drawing and re-routing that size —
// the whole per-sort ORP planning step, the part that used to rebuild
// (2·log₂ n − 1) × n/2 switch planes per sort — allocates nothing, even
// when two sizes alternate through the per-size plan cache.
func TestBenesLevelBufferReuseFlatAllocs(t *testing.T) {
	s := &ShuffleSorter{FixedSeed: fixedSeed(3), Crossover: 2}
	src := prng.New(29) // stable coins: coins() itself is one fixed-size alloc per sort
	serial := forkjoin.Serial()
	route := func(n int) {
		routeBenesInto(serial, s.benesPlanFor(n), s.perm(src, n), &s.route)
	}
	// Warm both sizes (plan buffers, routing scratch, perm buffer).
	route(1 << 10)
	route(1 << 11)
	if allocs := testing.AllocsPerRun(10, func() { route(1 << 10); route(1 << 11) }); allocs != 0 {
		t.Fatalf("re-routing warmed sizes allocated %v objects per run, want 0", allocs)
	}
}

// TestShuffleSorterReusesPlanesAcrossSorts asserts the buffer cache at the
// sort level: back-to-back SortScheduled calls of the same shape on one
// sorter route through the identical plan storage (no per-sort rebuild),
// and the reuse does not disturb sortedness.
func TestShuffleSorterReusesPlanesAcrossSorts(t *testing.T) {
	const n = 1 << 9
	shuf := &ShuffleSorter{FixedSeed: fixedSeed(12), Crossover: 2}
	sp := mem.NewSpace()
	src := prng.New(23)
	scr := mem.Alloc[obliv.Elem](sp, n)
	kscr := obliv.AllocKeySchedule(sp, n, 1)
	var planes *bool
	for rep := 0; rep < 3; rep++ {
		a, ks := shuffleInput(sp, src, n, n, 1)
		shuf.SortScheduled(forkjoin.Serial(), sp, a, ks, scr, kscr, 0, n)
		for i := 1; i < n; i++ {
			x, y := a.Data()[i-1], a.Data()[i]
			if x.Key > y.Key || (x.Key == y.Key && x.Aux > y.Aux) {
				t.Fatalf("rep %d: out of order at %d", rep, i)
			}
		}
		pl := shuf.plans[n]
		if pl == nil {
			t.Fatalf("rep %d: no cached plan for n=%d", rep, n)
		}
		if planes == nil {
			planes = &pl.layers[0][0]
		} else if planes != &pl.layers[0][0] {
			t.Fatalf("rep %d: plan storage was rebuilt across sorts", rep)
		}
	}
}

// TestBenesRouteParallelMatchesSerial pins the parallel switch-setting
// computation (the multicore PR's routing fork): routing the same
// permutation under the work-stealing pool and under the serial executor
// must produce bit-identical switch planes at every size — the settings
// encode the permutation, so any divergence would change the realized
// shuffle and break the FixedSeed trace replay downstream. Sizes straddle
// the routeGrain fork threshold so both the forked and the inline path of
// the pool context are exercised.
func TestBenesRouteParallelMatchesSerial(t *testing.T) {
	src := prng.New(41)
	for _, n := range []int{1 << 10, 2 * routeGrain, 4 * routeGrain} {
		perm := src.Perm(n)
		want := routeBenes(perm)
		got := newBenesPlan(n)
		var rs routeScratch
		forkjoin.RunParallel(4, func(c *forkjoin.Ctx) {
			routeBenesInto(c, got, perm, &rs)
		})
		for l := range want.layers {
			for j := range want.layers[l] {
				if got.layers[l][j] != want.layers[l][j] {
					t.Fatalf("n=%d: layer %d switch %d diverges between parallel and serial routing", n, l, j)
				}
			}
		}
	}
}

// TestShuffleSortParallelMatchesSerial runs the full FixedSeed shuffle sort
// pipeline — routing, network application, keyed sample sort — under the
// serial executor and under pools of 2 and 4 workers, and asserts the
// sorted arrays are byte-identical: with deterministic coins the strict
// total order (keys, TiePos, tie word) has exactly one realization, so the
// parallel schedule may not change any output bit.
func TestShuffleSortParallelMatchesSerial(t *testing.T) {
	const n, w = 4 * routeGrain, 2 // past the routing fork threshold
	sorted := func(workers int) []obliv.Elem {
		sp := mem.NewSpace()
		src := prng.New(7)
		a, ks := shuffleInput(sp, src, n, n-100, w)
		shuf := &ShuffleSorter{FixedSeed: fixedSeed(5), Crossover: 2}
		scr, kscr := sortScratch(sp, ks, n)
		if workers == 0 {
			shuf.SortScheduled(forkjoin.Serial(), sp, a, ks, scr, kscr, 0, n)
		} else {
			forkjoin.RunParallel(workers, func(c *forkjoin.Ctx) {
				shuf.SortScheduled(c, sp, a, ks, scr, kscr, 0, n)
			})
		}
		return append([]obliv.Elem(nil), a.Data()...)
	}
	want := sorted(0)
	for _, workers := range []int{2, 4} {
		got := sorted(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: output diverges from serial at %d: %+v want %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestShuffleSorterWarmAllocs pins the allocation count of one warmed
// serial 2^15 sort at both widths (the per-sort coins rewound, so every run
// sorts the same permuted sequence), so that core.sort_allocs_per_op cannot
// rise. The ceilings are the counts of the layer-at-a-time apply, before
// the sample sort kept a bucket record. Today's counts are ≈8 % lower
// (10 946 / 11 743): the serial recursive apply builds no fork closures, and
// the raw pivot table indexes the sorted sample instead of copying it,
// which more than pays for the one bucket record per sample sort.
func TestShuffleSorterWarmAllocs(t *testing.T) {
	const n = 1 << 15
	for _, tc := range []struct {
		w       int
		ceiling float64
	}{{1, 11806}, {2, 12760}} {
		sp := mem.NewSpace()
		a, ks := shuffleInput(sp, prng.New(3), n, n-n/8, tc.w)
		in := snapshotKeyed(a, ks)
		scr, kscr := sortScratch(sp, ks, n)
		srt := &ShuffleSorter{FixedSeed: fixedSeed(9), Crossover: 2}
		sort := func() {
			copy(a.Data(), in.Elems)
			for p := 0; p < tc.w; p++ {
				copy(ks.Plane(p).Data(), in.Planes[p])
			}
			srt.calls = 0
			srt.SortScheduled(forkjoin.Serial(), sp, a, ks, scr, kscr, 0, n)
		}
		sort()
		if allocs := testing.AllocsPerRun(3, sort); allocs > tc.ceiling {
			t.Fatalf("w=%d: a warmed sort allocated %v objects, want <= %v", tc.w, allocs, tc.ceiling)
		}
	}
}

// TestShuffleSortOutputsGolden pins what the kernels must not move: the
// switch settings routed for fixed permutations of every size 2^1..2^16,
// and the bytes two back-to-back FixedSeed sorts return when equal keys
// carry equal TiePos triples, so that their order is the tie words' and
// hence the permutation's.
func TestShuffleSortOutputsGolden(t *testing.T) {
	h := fnv.New64a()
	for k := 1; k <= 16; k++ {
		for _, layer := range routeBenes(prng.New(uint64(k)).Perm(1 << k)).layers {
			for _, b := range layer {
				h.Write([]byte{byte(switchMask(b) & 1)})
			}
		}
	}
	if got, want := h.Sum64(), uint64(0x3175609f73652dc0); got != want {
		t.Fatalf("routed switch settings hash %#x, want %#x", got, want)
	}
	for _, tc := range []struct {
		w    int
		want uint64
	}{{1, 0x32f220c7e37e8861}, {2, 0x3b7e109894fac1a5}} {
		const n = 1 << 14
		sp := mem.NewSpace()
		a, ks := shuffleInput(sp, prng.New(uint64(n+tc.w)), n, n-n/4, tc.w)
		for i := range a.Data() {
			a.Data()[i].Aux = 0
		}
		scr, kscr := sortScratch(sp, ks, n)
		srt := &ShuffleSorter{FixedSeed: fixedSeed(21), Crossover: 2}
		srt.SortScheduled(forkjoin.Serial(), sp, a, ks, scr, kscr, 0, n)
		srt.SortScheduled(forkjoin.Serial(), sp, a, ks, scr, kscr, 0, n)
		h := fnv.New64a()
		var buf [8]byte
		for _, e := range a.Data() {
			for _, v := range []uint64{e.Key, e.Key2, e.Val, e.Aux, e.Lbl, uint64(e.Tag), uint64(e.Kind), uint64(e.Mark)} {
				binary.LittleEndian.PutUint64(buf[:], v)
				h.Write(buf[:])
			}
		}
		if got := h.Sum64(); got != tc.want {
			t.Fatalf("w=%d: FixedSeed sort output hash %#x, want %#x", tc.w, got, tc.want)
		}
	}
}
