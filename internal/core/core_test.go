package core

import (
	"sort"
	"testing"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/prng"
)

// mkInput builds n Real elements with Key = distinct random values and
// Aux = original index.
func mkInput(sp *mem.Space, seed uint64, n int) *mem.Array[obliv.Elem] {
	src := prng.New(seed)
	used := map[uint64]bool{}
	a := mem.Alloc[obliv.Elem](sp, n)
	for i := 0; i < n; i++ {
		k := src.Uint64() >> 4 // keep below MaxKey
		for used[k] {
			k = src.Uint64() >> 4
		}
		used[k] = true
		a.Data()[i] = obliv.Elem{Key: k, Val: k * 3, Aux: uint64(i), Kind: obliv.Real}
	}
	return a
}

func TestParamsDefaults(t *testing.T) {
	p := ParamsForN(1 << 16)
	if !obliv.IsPow2(p.Z) || !obliv.IsPow2(p.Gamma) {
		t.Fatal("defaults not powers of two")
	}
	if p.Z < 256 { // log²(65536) = 256
		t.Fatalf("Z = %d too small for n=2^16", p.Z)
	}
	if p.Gamma != 16 {
		t.Fatalf("Gamma = %d, want 16", p.Gamma)
	}
}

func TestDigit(t *testing.T) {
	// label 0b1011 with labelBits=4: digits MSB-first.
	lbl := uint64(0b1011)
	if digit(lbl, 4, 0, 1) != 1 || digit(lbl, 4, 1, 1) != 0 || digit(lbl, 4, 2, 2) != 0b11 {
		t.Fatal("digit extraction wrong")
	}
	if digit(lbl, 4, 0, 4) != 0b1011 {
		t.Fatal("full-width digit wrong")
	}
}

func TestRecORBARoutesToLabeledBin(t *testing.T) {
	// Every surviving real element must be in the bin named by its label.
	for _, cfg := range []struct {
		n    int
		p    Params
		seed uint64
	}{
		{256, Params{Z: 64, Gamma: 8}, 1},
		{512, Params{Z: 64, Gamma: 2}, 2},   // γ=2: deep recursion ablation
		{1000, Params{Z: 128, Gamma: 4}, 3}, // non-pow2 n
		{64, Params{Z: 128, Gamma: 4}, 4},   // single-bin edge
	} {
		sp := mem.NewSpace()
		in := mkInput(sp, cfg.seed, cfg.n)
		tape := prng.NewTape(cfg.seed+100, TapeLen(cfg.n, cfg.p.Normalized(cfg.n)))
		res := RecORBA(forkjoin.Serial(), sp, in, tape, cfg.p)
		data := res.Bins.Data()
		found := 0
		for b := 0; b < res.Beta; b++ {
			for k := 0; k < res.Z; k++ {
				e := data[b*res.Z+k]
				if e.Kind != obliv.Real {
					continue
				}
				found++
				if int(e.Lbl) != b {
					t.Fatalf("n=%d: element with label %d in bin %d", cfg.n, e.Lbl, b)
				}
			}
		}
		if found != cfg.n-res.Lost {
			t.Fatalf("n=%d: found %d elements, want %d (lost %d)", cfg.n, found, cfg.n-res.Lost, res.Lost)
		}
	}
}

func TestRecORBANoLossWithSlack(t *testing.T) {
	// With Z at 4x the mean bin load, overflow probability is astronomical.
	sp := mem.NewSpace()
	const n = 512
	p := Params{Z: 64, Gamma: 4}
	in := mkInput(sp, 9, n)
	tape := prng.NewTape(77, TapeLen(n, p.Normalized(n)))
	res := RecORBA(forkjoin.Serial(), sp, in, tape, p)
	if res.Lost != 0 {
		t.Fatalf("lost %d elements with generous Z", res.Lost)
	}
}

func TestRecORBAPreservesPayload(t *testing.T) {
	sp := mem.NewSpace()
	const n = 200
	in := mkInput(sp, 5, n)
	want := map[uint64][2]uint64{}
	for _, e := range in.Data() {
		want[e.Key] = [2]uint64{e.Val, e.Aux}
	}
	tape := prng.NewTape(6, TapeLen(n, ParamsForN(n)))
	res := RecORBA(forkjoin.Serial(), sp, in, tape, Params{})
	for _, e := range res.Bins.Data() {
		if e.Kind != obliv.Real {
			continue
		}
		w, ok := want[e.Key]
		if !ok || e.Val != w[0] || e.Aux != w[1] {
			t.Fatalf("payload corrupted: %+v", e)
		}
		delete(want, e.Key)
	}
	if len(want) != res.Lost {
		t.Fatalf("%d elements unaccounted (lost=%d)", len(want), res.Lost)
	}
}

func TestMetaEqualsRecORBA(t *testing.T) {
	// Same tape → identical per-bin multisets (the two algorithms realize
	// the same functionality).
	const n = 512
	p := Params{Z: 64, Gamma: 4}
	binSets := func(orba func(*forkjoin.Ctx, *mem.Space, *mem.Array[obliv.Elem], *prng.Tape, Params) BinsResult) []map[uint64]int {
		sp := mem.NewSpace()
		in := mkInput(sp, 11, n)
		tape := prng.NewTape(42, TapeLen(n, p.Normalized(n)))
		res := orba(forkjoin.Serial(), sp, in, tape, p)
		sets := make([]map[uint64]int, res.Beta)
		for b := range sets {
			sets[b] = map[uint64]int{}
			for k := 0; k < res.Z; k++ {
				e := res.Bins.Data()[b*res.Z+k]
				if e.Kind == obliv.Real {
					sets[b][e.Key]++
				}
			}
		}
		return sets
	}
	rec, meta := binSets(RecORBA), binSets(MetaORBA)
	if len(rec) != len(meta) {
		t.Fatalf("beta mismatch: %d vs %d", len(rec), len(meta))
	}
	for b := range rec {
		if len(rec[b]) != len(meta[b]) {
			t.Fatalf("bin %d load mismatch: %d vs %d", b, len(rec[b]), len(meta[b]))
		}
		for k, v := range rec[b] {
			if meta[b][k] != v {
				t.Fatalf("bin %d content mismatch at key %d", b, k)
			}
		}
	}
}

func TestRecORBATraceOblivious(t *testing.T) {
	const n = 256
	p := Params{Z: 32, Gamma: 4}
	run := func(seed uint64) *forkjoin.Metrics {
		sp := mem.NewSpace()
		in := mkInput(sp, seed, n)
		tape := prng.NewTape(1234, TapeLen(n, p.Normalized(n))) // fixed tape
		return forkjoin.RunMetered(forkjoin.MeterOpts{EnableTrace: true}, func(c *forkjoin.Ctx) {
			RecORBA(c, sp, in, tape, p)
		})
	}
	if !run(1).Trace.Equal(run(2).Trace) {
		t.Fatal("REC-ORBA access pattern depends on input data")
	}
}

func TestMetaORBATraceOblivious(t *testing.T) {
	const n = 256
	p := Params{Z: 32, Gamma: 4}
	run := func(seed uint64) *forkjoin.Metrics {
		sp := mem.NewSpace()
		in := mkInput(sp, seed, n)
		tape := prng.NewTape(99, TapeLen(n, p.Normalized(n)))
		return forkjoin.RunMetered(forkjoin.MeterOpts{EnableTrace: true}, func(c *forkjoin.Ctx) {
			MetaORBA(c, sp, in, tape, p)
		})
	}
	if !run(3).Trace.Equal(run(4).Trace) {
		t.Fatal("META-ORBA access pattern depends on input data")
	}
}

func TestRecORBALoadDistributionUniform(t *testing.T) {
	// Across tapes, each element's bin choice must be uniform: aggregate
	// bin loads over many runs and chi-square against uniform.
	const n, runs = 128, 60
	p := Params{Z: 32, Gamma: 4}
	var counts []int64
	for r := 0; r < runs; r++ {
		sp := mem.NewSpace()
		in := mkInput(sp, uint64(r), n)
		tape := prng.NewTape(uint64(1000+r), TapeLen(n, p.Normalized(n)))
		res := RecORBA(forkjoin.Serial(), sp, in, tape, p)
		if counts == nil {
			counts = make([]int64, res.Beta)
		}
		for b, l := range res.BinLoads() {
			counts[b] += int64(l)
		}
	}
	stat, dof := traceChi(counts)
	if stat > critChi(dof) {
		t.Fatalf("bin loads not uniform: chi²=%.1f crit=%.1f counts=%v", stat, critChi(dof), counts)
	}
}

func TestRandomPermutationIsPermutation(t *testing.T) {
	for _, n := range []int{1, 2, 17, 128, 500} {
		sp := mem.NewSpace()
		in := mkInput(sp, uint64(n), n)
		out, attempts := MustRandomPermutation(forkjoin.Serial(), sp, in, 7, Params{})
		if attempts > 8 {
			t.Fatalf("n=%d needed %d attempts", n, attempts)
		}
		if out.Len() != n {
			t.Fatalf("n=%d: output length %d", n, out.Len())
		}
		seen := map[uint64]bool{}
		for _, e := range out.Data() {
			if e.Kind != obliv.Real {
				t.Fatal("filler in permutation output")
			}
			if seen[e.Key] {
				t.Fatal("duplicate element in output")
			}
			seen[e.Key] = true
		}
		for _, e := range in.Data() {
			if !seen[e.Key] {
				t.Fatalf("element %d missing from output", e.Key)
			}
		}
	}
}

func TestRandomPermutationUniformity(t *testing.T) {
	// The element with Aux=0 must land at a uniformly random output
	// position across tapes.
	const n, runs = 32, 640
	p := Params{Z: 16, Gamma: 4}
	counts := make([]int64, n)
	for r := 0; r < runs; r++ {
		sp := mem.NewSpace()
		in := mkInput(sp, 3, n) // same input every run; randomness from tape
		out, _ := MustRandomPermutation(forkjoin.Serial(), sp, in, uint64(r), p)
		if out.Len() != n {
			continue
		}
		for pos, e := range out.Data() {
			if e.Aux == 0 {
				counts[pos]++
			}
		}
	}
	stat, dof := traceChi(counts)
	if stat > critChi(dof) {
		t.Fatalf("permutation position not uniform: chi²=%.1f crit=%.1f", stat, critChi(dof))
	}
}

func TestRandomPermutationTraceOblivious(t *testing.T) {
	const n = 200
	p := Params{Z: 32, Gamma: 4}
	run := func(seed uint64) *forkjoin.Metrics {
		sp := mem.NewSpace()
		in := mkInput(sp, seed, n)
		tape := prng.NewTape(555, TapeLen(n, p.Normalized(n)))
		return forkjoin.RunMetered(forkjoin.MeterOpts{EnableTrace: true}, func(c *forkjoin.Ctx) {
			RandomPermutation(c, sp, in, tape, p)
		})
	}
	if !run(10).Trace.Equal(run(20).Trace) {
		t.Fatal("ORP access pattern depends on input data")
	}
}

func TestRecSortPermutedSorts(t *testing.T) {
	// REC-SORT applied to an already-shuffled input must fully sort it.
	for _, n := range []int{10, 100, 1000, 4096} {
		sp := mem.NewSpace()
		in := mkInput(sp, uint64(n)+1, n)
		// Shuffle non-obliviously (REC-SORT only needs *some* random order).
		src := prng.New(99)
		perm := src.Perm(n)
		sh := mem.Alloc[obliv.Elem](sp, n)
		for i, j := range perm {
			sh.Data()[i] = in.Data()[j]
		}
		p := Params{SampleRate: 4, PivotSpacing: 16, Gamma: 4}
		out, stats := RecSortPermuted(forkjoin.Serial(), sp, sh, 5, p)
		if stats.Lost != 0 {
			t.Fatalf("n=%d: REC-SORT lost %d", n, stats.Lost)
		}
		if out.Len() != n {
			t.Fatalf("n=%d: output length %d", n, out.Len())
		}
		for i := 1; i < n; i++ {
			if out.Data()[i-1].Key > out.Data()[i].Key {
				t.Fatalf("n=%d: not sorted at %d", n, i)
			}
		}
	}
}

func TestSortPracticalSortsAndPreserves(t *testing.T) {
	for _, n := range []int{1, 2, 50, 300, 2000} {
		sp := mem.NewSpace()
		in := mkInput(sp, uint64(n)+7, n)
		want := make([]uint64, n)
		for i, e := range in.Data() {
			want[i] = e.Key
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		out, stats := SortPractical(forkjoin.Serial(), sp, in, 13, Params{})
		if stats.Attempts > 8 {
			t.Fatalf("n=%d: %d attempts", n, stats.Attempts)
		}
		if out.Len() != n {
			t.Fatalf("n=%d: len %d", n, out.Len())
		}
		for i, e := range out.Data() {
			if e.Key != want[i] {
				t.Fatalf("n=%d: out[%d] = %d, want %d", n, i, e.Key, want[i])
			}
			if e.Val != e.Key*3 {
				t.Fatalf("n=%d: payload lost at %d", n, i)
			}
		}
	}
}

func TestSortWithInsecurePlug(t *testing.T) {
	// SortWith using a trivial comparison sort as the "SPMS" stage.
	const n = 300
	sp := mem.NewSpace()
	in := mkInput(sp, 21, n)
	want := make([]uint64, n)
	for i, e := range in.Data() {
		want[i] = e.Key
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	insecure := func(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[obliv.Elem]) {
		// A deliberately simple comparison sort over instrumented memory.
		d := a.Data()
		sort.Slice(d, func(i, j int) bool { return d[i].Key < d[j].Key })
		c.Op(int64(n)) // nominal cost
	}
	out, _ := SortWith(forkjoin.Serial(), sp, in, 3, Params{}, insecure)
	for i, e := range out.Data() {
		if e.Key != want[i] {
			t.Fatalf("out[%d] = %d, want %d", i, e.Key, want[i])
		}
	}
}

func TestSortKeys(t *testing.T) {
	keys := []uint64{42, 7, 99, 1, 65, 13, 27, 88, 54, 31}
	sp := mem.NewSpace()
	got := SortKeys(forkjoin.Serial(), sp, keys, 1, Params{})
	want := append([]uint64(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSortPracticalParallelMatchesMetered(t *testing.T) {
	const n = 800
	mk := func() (*mem.Space, *mem.Array[obliv.Elem]) {
		sp := mem.NewSpace()
		return sp, mkInput(sp, 31, n)
	}
	sp1, in1 := mk()
	out1, _ := SortPractical(forkjoin.Serial(), sp1, in1, 17, Params{})
	sp2, in2 := mk()
	var out2 *mem.Array[obliv.Elem]
	forkjoin.RunParallel(4, func(c *forkjoin.Ctx) {
		out2, _ = SortPractical(c, sp2, in2, 17, Params{})
	})
	if out1.Len() != out2.Len() {
		t.Fatalf("length mismatch %d vs %d", out1.Len(), out2.Len())
	}
	for i := range out1.Data() {
		if out1.Data()[i].Key != out2.Data()[i].Key {
			t.Fatalf("parallel/serial sort mismatch at %d", i)
		}
	}
}

func TestORBAWorkScalesNearLinearithmic(t *testing.T) {
	// Work(2n)/Work(n) should be ~2·(log 2n / log n)·(loglog factor) —
	// bounded well below 3 at these sizes, and above 1.8.
	work := func(n int) int64 {
		sp := mem.NewSpace()
		in := mkInput(sp, 1, n)
		p := ParamsForN(n)
		tape := prng.NewTape(2, TapeLen(n, p))
		m := forkjoin.RunMetered(forkjoin.MeterOpts{}, func(c *forkjoin.Ctx) {
			RecORBA(c, sp, in, tape, p)
		})
		return m.Work
	}
	w1, w2 := work(1<<10), work(1<<11)
	ratio := float64(w2) / float64(w1)
	if ratio < 1.6 || ratio > 3.2 {
		t.Fatalf("ORBA work doubling ratio %.2f outside [1.6, 3.2]", ratio)
	}
}

func TestORBASpanPolylog(t *testing.T) {
	span := func(n int) int64 {
		sp := mem.NewSpace()
		in := mkInput(sp, 1, n)
		p := ParamsForN(n)
		tape := prng.NewTape(2, TapeLen(n, p))
		m := forkjoin.RunMetered(forkjoin.MeterOpts{}, func(c *forkjoin.Ctx) {
			RecORBA(c, sp, in, tape, p)
		})
		return m.Span
	}
	s1, s2 := span(1<<9), span(1<<12)
	// 8x the input should grow span by far less than 8x.
	if float64(s2) > 3.0*float64(s1) {
		t.Fatalf("ORBA span grows too fast: %d -> %d", s1, s2)
	}
}

// --- helpers ---

func traceChi(counts []int64) (float64, int) {
	k := len(counts)
	var total int64
	for _, c := range counts {
		total += c
	}
	if k < 2 || total == 0 {
		return 0, 0
	}
	exp := float64(total) / float64(k)
	stat := 0.0
	for _, c := range counts {
		d := float64(c) - exp
		stat += d * d / exp
	}
	return stat, k - 1
}

func critChi(dof int) float64 {
	// Wilson–Hilferty at p≈0.001 (same as trace.CriticalValue999).
	if dof <= 0 {
		return 0
	}
	k := float64(dof)
	z := 3.0902
	t := 1 - 2/(9*k) + z*sqrt(2/(9*k))
	return k * t * t * t
}

func sqrt(x float64) float64 {
	g := x
	for i := 0; i < 40; i++ {
		g = 0.5 * (g + x/g)
	}
	return g
}
