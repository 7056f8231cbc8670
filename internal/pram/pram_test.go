package pram

import (
	"slices"
	"testing"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/prng"
)

// randomList builds a random successor array for a single list over n
// nodes; returns (succ, referenceRanks).
func randomList(seed uint64, n int) ([]int, []int) {
	src := prng.New(seed)
	order := src.Perm(n) // order[k] = node at list position k
	succ := make([]int, n)
	ranks := make([]int, n)
	for k := 0; k < n; k++ {
		node := order[k]
		if k == n-1 {
			succ[node] = node // tail
		} else {
			succ[node] = order[k+1]
		}
		ranks[node] = n - 1 - k
	}
	return succ, ranks
}

func TestDirectPointerJump(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 100} {
		succ, want := randomList(uint64(n), n)
		m := &PointerJumpMachine{N: n, Succ: succ}
		sp := mem.NewSpace()
		final := RunDirect(forkjoin.Serial(), sp, m, m.InitialMemory())
		got := m.Ranks(final)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: rank[%d] = %d, want %d", n, i, got[i], want[i])
			}
		}
	}
}

func TestObliviousPointerJumpMatchesDirect(t *testing.T) {
	for _, n := range []int{4, 16, 64} {
		succ, want := randomList(uint64(n)+3, n)
		m := &PointerJumpMachine{N: n, Succ: succ}
		sp := mem.NewSpace()
		final := RunOblivious(forkjoin.Serial(), sp, m, m.InitialMemory())
		got := m.Ranks(final)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: oblivious rank[%d] = %d, want %d", n, i, got[i], want[i])
			}
		}
	}
}

func TestMaxMachineBothSimulators(t *testing.T) {
	const n = 32
	src := prng.New(5)
	vals := make([]uint64, n)
	var want uint64
	for i := range vals {
		vals[i] = src.Uint64n(1 << 40)
		if vals[i] > want {
			want = vals[i]
		}
	}
	m := &MaxMachine{N: n, Values: vals}
	sp := mem.NewSpace()
	direct := RunDirect(forkjoin.Serial(), sp, m, m.InitialMemory())
	if direct[0] != want {
		t.Fatalf("direct max = %d, want %d", direct[0], want)
	}
	sp2 := mem.NewSpace()
	obliv := RunOblivious(forkjoin.Serial(), sp2, m, m.InitialMemory())
	if obliv[0] != want {
		t.Fatalf("oblivious max = %d, want %d", obliv[0], want)
	}
}

func TestAddConstMachine(t *testing.T) {
	const n = 10
	m := &AddConstMachine{N: n, K: 7}
	init := make([]uint64, n)
	for i := range init {
		init[i] = uint64(i * 10)
	}
	sp := mem.NewSpace()
	got := RunOblivious(forkjoin.Serial(), sp, m, init)
	for i := range init {
		if got[i] != init[i]+7 {
			t.Fatalf("cell %d = %d, want %d", i, got[i], init[i]+7)
		}
	}
}

func TestPriorityConflictResolution(t *testing.T) {
	m := &ConflictMachine{P: 9, Base: 100}
	sp := mem.NewSpace()
	direct := RunDirect(forkjoin.Serial(), sp, m, make([]uint64, 4))
	if direct[0] != 100 {
		t.Fatalf("direct priority CRCW kept %d, want 100 (proc 0)", direct[0])
	}
	sp2 := mem.NewSpace()
	obl := RunOblivious(forkjoin.Serial(), sp2, m, make([]uint64, 4))
	if obl[0] != 100 {
		t.Fatalf("oblivious priority CRCW kept %d, want 100 (proc 0)", obl[0])
	}
}

func TestObliviousSimulationTraceOblivious(t *testing.T) {
	// Two different list structures of the same size must induce identical
	// access patterns under the oblivious simulation — this is the heart
	// of Theorem 4.1.
	const n = 16
	run := func(seed uint64) *forkjoin.Metrics {
		succ, _ := randomList(seed, n)
		m := &PointerJumpMachine{N: n, Succ: succ}
		sp := mem.NewSpace()
		return forkjoin.RunMetered(forkjoin.MeterOpts{EnableTrace: true}, func(c *forkjoin.Ctx) {
			RunOblivious(c, sp, m, m.InitialMemory())
		})
	}
	if !run(1).Trace.Equal(run(2).Trace) {
		t.Fatal("oblivious PRAM simulation leaks the list structure")
	}
}

func TestDirectSimulationLeaks(t *testing.T) {
	// Sanity inverse: the direct interpreter's pattern DOES depend on the
	// list structure (otherwise the oblivious test above proves nothing).
	const n = 16
	run := func(seed uint64) *forkjoin.Metrics {
		succ, _ := randomList(seed, n)
		m := &PointerJumpMachine{N: n, Succ: succ}
		sp := mem.NewSpace()
		return forkjoin.RunMetered(forkjoin.MeterOpts{EnableTrace: true}, func(c *forkjoin.Ctx) {
			RunDirect(c, sp, m, m.InitialMemory())
		})
	}
	if run(1).Trace.Equal(run(2).Trace) {
		t.Fatal("direct interpreter unexpectedly oblivious (test is vacuous)")
	}
}

func TestGatherBasic(t *testing.T) {
	sp := mem.NewSpace()
	memory := mem.FromSlice(sp, []uint64{10, 20, 30, 40})
	addrs := mem.FromSlice(sp, []uint64{2, 0, 3, 99, 1})
	out := Gather(forkjoin.Serial(), sp, memory, addrs, nil)
	want := []struct {
		val uint64
		ok  bool
	}{{30, true}, {10, true}, {40, true}, {0, false}, {20, true}}
	for i, w := range want {
		e := out.Data()[i]
		if (e.Kind == obliv.Real) != w.ok {
			t.Fatalf("addr %d: ok=%v want %v", i, e.Kind == obliv.Real, w.ok)
		}
		if w.ok && e.Val != w.val {
			t.Fatalf("addr %d: val=%d want %d", i, e.Val, w.val)
		}
	}
}

func TestScatterResolveBasic(t *testing.T) {
	sp := mem.NewSpace()
	memory := mem.FromSlice(sp, []uint64{1, 2, 3, 4})
	reqs := mem.FromSlice(sp, []obliv.Elem{
		{Key: 1, Val: 100, Aux: 5, Kind: obliv.Real},
		{Key: 1, Val: 200, Aux: 2, Kind: obliv.Real}, // lower priority id wins
		{Key: 3, Val: 300, Aux: 9, Kind: obliv.Real},
		{Kind: obliv.Filler},
	})
	ScatterResolve(forkjoin.Serial(), sp, memory, reqs)
	want := []uint64{1, 200, 3, 300}
	for i, w := range want {
		if memory.Data()[i] != w {
			t.Fatalf("memory = %v, want %v", memory.Data(), want)
		}
	}
}

// TestScatterResolveWidePriority: priorities resolve exactly at any value —
// a request at priority 2^21 loses to one at priority 1, at any request
// position.
func TestScatterResolveWidePriority(t *testing.T) {
	for _, reqs := range [][]obliv.Elem{
		{{Key: 2, Val: 500, Aux: 1 << 21, Kind: obliv.Real}, {Key: 2, Val: 600, Aux: 1, Kind: obliv.Real}},
		{{Key: 2, Val: 600, Aux: 1, Kind: obliv.Real}, {Key: 2, Val: 500, Aux: 1 << 21, Kind: obliv.Real}},
		{{Key: 2, Val: 500, Aux: 1<<63 + 1, Kind: obliv.Real}, {Key: 2, Val: 600, Aux: 1 << 63, Kind: obliv.Real}},
	} {
		sp := mem.NewSpace()
		memory := mem.FromSlice(sp, []uint64{1, 2, 3, 4})
		ScatterResolve(forkjoin.Serial(), sp, memory, mem.FromSlice(sp, reqs))
		if got := memory.Data()[2]; got != 600 {
			t.Fatalf("requests %+v: memory[2] = %d, want the lower priority's 600", reqs, got)
		}
	}
}

// TestScatterResolveTiedPriority: requests tied on (address, priority)
// resolve to one of the tied values, the same one on the serial, 2-worker
// pool and metered executors, whether the tie is for the win or behind a
// unique winner, with priorities at and above 2^63 — and the min-combining
// scatter keeps the smaller of that value and the cell's.
func TestScatterResolveTiedPriority(t *testing.T) {
	const hi = 1 << 63
	cases := []struct {
		reqs []obliv.Elem
		win  []uint64 // the values that may land in cell 2
	}{
		{[]obliv.Elem{ // a tie for the win
			{Key: 2, Val: 700, Aux: hi + 9, Kind: obliv.Real},
			{Key: 2, Val: 800, Aux: hi + 1, Kind: obliv.Real},
			{Key: 2, Val: 900, Aux: hi + 1, Kind: obliv.Real},
			{Key: 3, Val: 5, Aux: hi + 1, Kind: obliv.Real},
		}, []uint64{800, 900}},
		{[]obliv.Elem{ // a tie behind the winner, which sits above 2^63 too
			{Key: 2, Val: 700, Aux: ^uint64(0), Kind: obliv.Real},
			{Key: 2, Val: 800, Aux: ^uint64(0), Kind: obliv.Real},
			{Key: 2, Val: 900, Aux: hi, Kind: obliv.Real},
		}, []uint64{900}},
		{[]obliv.Elem{ // four equal requests and fillers around them
			{Key: 2, Val: 10, Aux: 4, Kind: obliv.Real},
			{Key: 2, Val: 20, Aux: 4, Kind: obliv.Real},
			{Kind: obliv.Filler},
			{Key: 2, Val: 30, Aux: 4, Kind: obliv.Real},
			{Key: 2, Val: 40, Aux: 4, Kind: obliv.Real},
			{Key: 2, Val: 1, Aux: 0},
		}, []uint64{10, 20, 30, 40}},
	}
	execs := []func(func(c *forkjoin.Ctx)){
		func(f func(c *forkjoin.Ctx)) { f(forkjoin.Serial()) },
		func(f func(c *forkjoin.Ctx)) { forkjoin.RunParallel(2, f) },
		func(f func(c *forkjoin.Ctx)) { forkjoin.RunMetered(forkjoin.MeterOpts{}, f) },
	}
	for ci, tc := range cases {
		for _, combineMin := range []bool{false, true} {
			var first []uint64
			for ei, run := range execs {
				var got []uint64
				run(func(c *forkjoin.Ctx) {
					sp := mem.NewSpace()
					memory := mem.FromSlice(sp, []uint64{1, 2, 850, 4})
					reqs := mem.FromSlice(sp, tc.reqs)
					if combineMin {
						ScatterResolveMin(c, sp, memory, reqs, nil)
					} else {
						ScatterResolve(c, sp, memory, reqs)
					}
					got = slices.Clone(memory.Data())
				})
				w := got[2]
				if combineMin {
					w = 0
					for _, v := range tc.win {
						if min(v, 850) == got[2] {
							w = v
						}
					}
				}
				if !slices.Contains(tc.win, w) {
					t.Fatalf("case %d min=%t executor %d: cell 2 = %d, want one of %v", ci, combineMin, ei, got[2], tc.win)
				}
				if ei == 0 {
					first = got
				} else if !slices.Equal(got, first) {
					t.Fatalf("case %d min=%t: executor %d wrote %v, the serial one %v", ci, combineMin, ei, got, first)
				}
			}
		}
	}
}

func TestScatterResolveAllFillers(t *testing.T) {
	sp := mem.NewSpace()
	memory := mem.FromSlice(sp, []uint64{7, 8, 9})
	reqs := mem.Alloc[obliv.Elem](sp, 5) // all fillers
	ScatterResolve(forkjoin.Serial(), sp, memory, reqs)
	for i, w := range []uint64{7, 8, 9} {
		if memory.Data()[i] != w {
			t.Fatalf("memory changed: %v", memory.Data())
		}
	}
}

func TestGatherScatterTraceOblivious(t *testing.T) {
	run := func(addrSeed uint64) *forkjoin.Metrics {
		sp := mem.NewSpace()
		src := prng.New(addrSeed)
		memory := mem.Alloc[uint64](sp, 32)
		addrs := mem.Alloc[uint64](sp, 8)
		for i := range addrs.Data() {
			addrs.Data()[i] = src.Uint64n(32)
		}
		reqs := mem.Alloc[obliv.Elem](sp, 8)
		for i := range reqs.Data() {
			reqs.Data()[i] = obliv.Elem{Key: src.Uint64n(32), Val: src.Uint64(), Aux: uint64(i), Kind: obliv.Real}
		}
		return forkjoin.RunMetered(forkjoin.MeterOpts{EnableTrace: true}, func(c *forkjoin.Ctx) {
			out := Gather(c, sp, memory, addrs, nil)
			_ = out
			ScatterResolve(c, sp, memory, reqs)
		})
	}
	if !run(1).Trace.Equal(run(2).Trace) {
		t.Fatal("gather/scatter access pattern depends on addresses")
	}
}

func TestObliviousStepCostScalesWithSpace(t *testing.T) {
	// Theorem 4.1: per-step work is O(Wsort(p+s)) — so doubling s should
	// roughly double per-step work (up to the log factor), not square it.
	work := func(n int) int64 {
		m := &AddConstMachine{N: n, K: 1}
		sp := mem.NewSpace()
		mm := forkjoin.RunMetered(forkjoin.MeterOpts{}, func(c *forkjoin.Ctx) {
			RunOblivious(c, sp, m, make([]uint64, n))
		})
		return mm.Work
	}
	w1, w2 := work(1<<7), work(1<<8)
	r := float64(w2) / float64(w1)
	if r < 1.7 || r > 3.4 {
		t.Fatalf("per-step work doubling ratio %.2f outside [1.7, 3.4]", r)
	}
}

func TestParallelObliviousMatchesSerial(t *testing.T) {
	const n = 32
	succ, _ := randomList(77, n)
	m := &PointerJumpMachine{N: n, Succ: succ}
	sp1 := mem.NewSpace()
	serial := RunOblivious(forkjoin.Serial(), sp1, m, m.InitialMemory())
	var par []uint64
	forkjoin.RunParallel(4, func(c *forkjoin.Ctx) {
		sp2 := mem.NewSpace()
		par = RunOblivious(c, sp2, m, m.InitialMemory())
	})
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("parallel mismatch at %d", i)
		}
	}
}

// TestScatterResolveMatchesReference: conflict resolution against a plain-Go
// reference at request counts that are not powers of two, with two to four
// requests at every address (so every address has losers), filler requests
// carrying Key 0 or an arbitrary Key, and distinct priorities. The sorted
// requests feed a merge, so a filler or pow2 padding slot keeping its Key
// would break the merge's ascending source run and misroute values.
func TestScatterResolveMatchesReference(t *testing.T) {
	for _, s := range []int{1, 4, 16, 33} {
		for _, fillers := range []int{1, 3, 6} {
			for _, combineMin := range []bool{false, true} {
				seed := uint64(s*100 + fillers*10)
				if combineMin {
					seed++
				}
				src := prng.New(seed)
				var reqs []obliv.Elem
				for a := 0; a < s; a++ {
					for k := 2 + src.Intn(3); k > 0; k-- {
						reqs = append(reqs, obliv.Elem{Key: uint64(a), Val: src.Uint64n(1000), Kind: obliv.Real})
					}
				}
				for f := 0; f < fillers; f++ {
					key := uint64(0)
					if f%2 == 1 {
						key = src.Uint64n(uint64(s))
					}
					reqs = append(reqs, obliv.Elem{Key: key, Val: src.Uint64n(1000)})
				}
				if obliv.IsPow2(len(reqs)) {
					reqs = append(reqs, obliv.Elem{})
				}
				// Shuffle, then hand out distinct priorities.
				for i := len(reqs) - 1; i > 0; i-- {
					j := src.Intn(i + 1)
					reqs[i], reqs[j] = reqs[j], reqs[i]
				}
				prio := src.Perm(len(reqs))
				for i := range reqs {
					reqs[i].Aux = uint64(prio[i])
				}

				init := make([]uint64, s)
				for a := range init {
					init[a] = 500 + src.Uint64n(1000)
				}
				want := append([]uint64(nil), init...)
				best := make([]int, s)
				for a := range best {
					best[a] = -1
				}
				for i, r := range reqs {
					if r.Kind == obliv.Real && (best[r.Key] < 0 || r.Aux < reqs[best[r.Key]].Aux) {
						best[r.Key] = i
					}
				}
				for a, i := range best {
					if v := reqs[i].Val; !combineMin || v < want[a] {
						want[a] = v
					}
				}

				sp := mem.NewSpace()
				memory := mem.FromSlice(sp, init)
				if combineMin {
					ScatterResolveMin(forkjoin.Serial(), sp, memory, mem.FromSlice(sp, reqs), nil)
				} else {
					ScatterResolve(forkjoin.Serial(), sp, memory, mem.FromSlice(sp, reqs))
				}
				if got := memory.Data(); !slices.Equal(got, want) {
					t.Fatalf("s=%d p=%d min=%t: memory %v, want %v", s, len(reqs), combineMin, got, want)
				}
			}
		}
	}
}
