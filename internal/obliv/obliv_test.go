package obliv

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv/oblivtest"
	"oblivmc/internal/prng"
)

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Fatalf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestIsPow2Log2(t *testing.T) {
	if !IsPow2(1) || !IsPow2(64) || IsPow2(0) || IsPow2(3) {
		t.Fatal("IsPow2 wrong")
	}
	if Log2(1) != 0 || Log2(2) != 1 || Log2(1024) != 10 || Log2(1023) != 9 {
		t.Fatal("Log2 wrong")
	}
}

// keyPair is a one-plane schedule holding the keys x, y.
func keyPair(sp *mem.Space, x, y uint64) *KeySchedule {
	return NewKeySchedule(mem.FromSlice(sp, []uint64{x, y}), 2, 1)
}

// TestCompareExchange runs one compare-exchange of the one-key-plane
// comparator (the Theorem E.1 ablation's) in both directions.
func TestCompareExchange(t *testing.T) {
	c := forkjoin.Serial()
	ks := keyPair(mem.NewSpace(), 5, 2)
	kern := NewCexKernelPlanes(c, ks, 1, nil)
	Layer(c, kern, 0, 1, 2, 1, 1, false)
	if d := ks.Plane(0).Data(); d[0] != 2 || d[1] != 5 {
		t.Fatal("ascending exchange failed")
	}
	kern.Layer(0, 2, 1, 0, false, 0)
	if d := ks.Plane(0).Data(); d[0] != 5 || d[1] != 2 {
		t.Fatal("descending exchange failed")
	}
}

// TestCompareExchangeObliviousTrace: one compare-exchange of the
// one-key-plane comparator reads and rewrites both words whatever their
// order.
func TestCompareExchangeObliviousTrace(t *testing.T) {
	run := func(x, y uint64) *forkjoin.Metrics {
		ks := keyPair(mem.NewSpace(), x, y)
		return forkjoin.RunMetered(forkjoin.MeterOpts{EnableTrace: true}, func(c *forkjoin.Ctx) {
			Layer(c, NewCexKernelPlanes(c, ks, 1, nil), 0, 1, 2, 1, 1, false)
		})
	}
	if !run(1, 2).Trace.Equal(run(2, 1).Trace) {
		t.Fatal("compare-exchange trace depends on data")
	}
}

func refPrefix(in []uint64, inclusive bool) []uint64 {
	out := make([]uint64, len(in))
	var acc uint64
	for i, v := range in {
		if inclusive {
			acc += v
			out[i] = acc
		} else {
			out[i] = acc
			acc += v
		}
	}
	return out
}

func TestPrefixSumSizes(t *testing.T) {
	src := prng.New(1)
	for _, n := range []int{1, 2, 3, 7, 8, 100, 1023} {
		for _, inclusive := range []bool{true, false} {
			raw := make([]uint64, n)
			for i := range raw {
				raw[i] = src.Uint64n(1000)
			}
			s := mem.NewSpace()
			a := mem.FromSlice(s, raw)
			PrefixSumU64(forkjoin.Serial(), s, a, inclusive)
			want := refPrefix(raw, inclusive)
			for i := range want {
				if a.Data()[i] != want[i] {
					t.Fatalf("n=%d inclusive=%v: a[%d]=%d want %d", n, inclusive, i, a.Data()[i], want[i])
				}
			}
		}
	}
}

func TestPrefixSumEmpty(t *testing.T) {
	s := mem.NewSpace()
	a := mem.Alloc[uint64](s, 0)
	PrefixSumU64(forkjoin.Serial(), s, a, true) // must not panic
}

func TestScanNonCommutativeOp(t *testing.T) {
	// op = right projection is associative but not commutative; inclusive
	// scan must leave the array unchanged, exclusive must shift right.
	rightProj := func(x, y uint64) uint64 { return y }
	raw := []uint64{9, 4, 7, 7, 1, 3}
	s := mem.NewSpace()
	a := mem.FromSlice(s, raw)
	ScanOp(forkjoin.Serial(), s, a, rightProj, 0, true)
	for i := range raw {
		if a.Data()[i] != raw[i] {
			t.Fatalf("inclusive right-projection changed a[%d]", i)
		}
	}
	b := mem.FromSlice(s, raw)
	ScanOp(forkjoin.Serial(), s, b, rightProj, 99, false)
	want := []uint64{99, 9, 4, 7, 7, 1}
	for i := range want {
		if b.Data()[i] != want[i] {
			t.Fatalf("exclusive: b=%v want %v", b.Data(), want)
		}
	}
}

func TestScanMaxOp(t *testing.T) {
	maxOp := func(x, y uint64) uint64 {
		if x > y {
			return x
		}
		return y
	}
	raw := []uint64{3, 1, 4, 1, 5, 9, 2, 6}
	s := mem.NewSpace()
	a := mem.FromSlice(s, raw)
	ScanOp(forkjoin.Serial(), s, a, maxOp, 0, true)
	want := []uint64{3, 3, 4, 4, 5, 9, 9, 9}
	for i := range want {
		if a.Data()[i] != want[i] {
			t.Fatalf("running max = %v, want %v", a.Data(), want)
		}
	}
}

func TestScanSpanLogarithmic(t *testing.T) {
	span := func(n int) int64 {
		s := mem.NewSpace()
		a := mem.Alloc[uint64](s, n)
		m := forkjoin.RunMetered(forkjoin.MeterOpts{}, func(c *forkjoin.Ctx) {
			PrefixSumU64(c, s, a, true)
		})
		return m.Span
	}
	s1, s2 := span(1<<8), span(1<<12)
	if s2 >= 3*s1 {
		t.Fatalf("scan span not logarithmic: %d -> %d", s1, s2)
	}
}

func TestScanCacheScanBound(t *testing.T) {
	const n = 1 << 12
	const b = 16
	s := mem.NewSpace()
	a := mem.Alloc[uint64](s, n)
	m := forkjoin.RunMetered(forkjoin.MeterOpts{CacheM: 1 << 9, CacheB: b}, func(c *forkjoin.Ctx) {
		PrefixSumU64(c, s, a, true)
	})
	// Scan touches a twice and the 2n-1 tree twice: ~6n/B misses total.
	bound := int64(8 * n / b)
	if m.CacheMisses > bound {
		t.Fatalf("scan misses %d exceed bound %d", m.CacheMisses, bound)
	}
}

func TestSumU64(t *testing.T) {
	raw := []uint64{5, 10, 20, 1}
	s := mem.NewSpace()
	a := mem.FromSlice(s, raw)
	if got := SumU64(forkjoin.Serial(), s, a); got != 36 {
		t.Fatalf("sum = %d", got)
	}
	for i, v := range a.Data() {
		if v != raw[i] {
			t.Fatal("SumU64 modified the array")
		}
	}
}

func TestScanParallelMatchesSerial(t *testing.T) {
	raw := make([]uint64, 5000)
	src := prng.New(2)
	for i := range raw {
		raw[i] = src.Uint64n(100)
	}
	want := refPrefix(raw, true)
	s := mem.NewSpace()
	a := mem.FromSlice(s, raw)
	forkjoin.RunParallel(4, func(c *forkjoin.Ctx) {
		PrefixSumU64(c, s, a, true)
	})
	for i := range want {
		if a.Data()[i] != want[i] {
			t.Fatalf("parallel scan mismatch at %d", i)
		}
	}
}

// buildGrouped creates a grouped (sorted-by-group) Elem array.
func buildGrouped(groups [][]uint64) []Elem {
	var out []Elem
	for g, vals := range groups {
		for _, v := range vals {
			out = append(out, Elem{Key: uint64(g), Val: v, Kind: Real})
		}
	}
	return out
}

func TestPropagateFirstBasic(t *testing.T) {
	raw := buildGrouped([][]uint64{{10, 11, 12}, {20}, {30, 31}})
	s := mem.NewSpace()
	a := mem.FromSlice(s, raw)
	got := make([]uint64, len(raw))
	PropagateFirst(forkjoin.Serial(), s, a,
		func(e Elem) uint64 { return e.Key },
		func(e Elem, i int) (uint64, bool) { return e.Val, true },
		func(e Elem, i int, v uint64, ok bool) Elem {
			got[i] = v
			return e
		})
	want := []uint64{10, 10, 10, 20, 30, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestPropagateFirstSelectiveSource(t *testing.T) {
	// Only elements with Tag==1 are sources; groups without any source get
	// ok=false.
	raw := []Elem{
		{Key: 0, Val: 1, Kind: Real}, // group 0: no source
		{Key: 0, Val: 2, Kind: Real},
		{Key: 1, Val: 3, Kind: Real}, // group 1: source is second
		{Key: 1, Val: 4, Tag: 1, Kind: Real},
		{Key: 1, Val: 5, Kind: Real},
	}
	s := mem.NewSpace()
	a := mem.FromSlice(s, raw)
	type res struct {
		v  uint64
		ok bool
	}
	got := make([]res, len(raw))
	PropagateFirst(forkjoin.Serial(), s, a,
		func(e Elem) uint64 { return e.Key },
		func(e Elem, i int) (uint64, bool) { return e.Val, e.Tag == 1 },
		func(e Elem, i int, v uint64, ok bool) Elem {
			got[i] = res{v, ok}
			return e
		})
	if got[0].ok || got[1].ok {
		t.Fatal("sourceless group reported ok")
	}
	// Propagation is directional: positions before the first source of the
	// run see ok=false; the source and everything after it see its value.
	if got[2].ok {
		t.Fatalf("entry before source reported ok: %+v", got[2])
	}
	for i := 3; i < 5; i++ {
		if !got[i].ok || got[i].v != 4 {
			t.Fatalf("group 1 entry %d = %+v, want value 4", i, got[i])
		}
	}
}

func TestPropagateTraceOblivious(t *testing.T) {
	run := func(keys []uint64) *forkjoin.Metrics {
		raw := make([]Elem, len(keys))
		for i, k := range keys {
			raw[i] = Elem{Key: k, Val: k * 10, Kind: Real}
		}
		s := mem.NewSpace()
		a := mem.FromSlice(s, raw)
		return forkjoin.RunMetered(forkjoin.MeterOpts{EnableTrace: true}, func(c *forkjoin.Ctx) {
			PropagateFirst(c, s, a,
				func(e Elem) uint64 { return e.Key },
				func(e Elem, i int) (uint64, bool) { return e.Val, true },
				func(e Elem, i int, v uint64, ok bool) Elem { e.Aux = v; return e })
		})
	}
	// Different group structures, same length → same trace.
	a := run([]uint64{0, 0, 0, 1, 2, 2})
	b := run([]uint64{0, 1, 2, 3, 4, 5})
	if !a.Trace.Equal(b.Trace) {
		t.Fatal("propagation trace depends on group structure")
	}
}

func TestAggregateSuffixSum(t *testing.T) {
	raw := buildGrouped([][]uint64{{1, 2, 3}, {10, 20}})
	s := mem.NewSpace()
	a := mem.FromSlice(s, raw)
	got := make([]uint64, len(raw))
	AggregateSuffix(forkjoin.Serial(), s, a,
		func(e Elem) uint64 { return e.Key },
		func(e Elem) uint64 { return e.Val },
		func(x, y uint64) uint64 { return x + y },
		func(e Elem, i int, agg uint64) Elem {
			got[i] = agg
			return e
		})
	want := []uint64{6, 5, 3, 30, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestAggregateSuffixRandomVsRef(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%50) + 1
		src := prng.New(seed)
		raw := make([]Elem, n)
		g := uint64(0)
		for i := range raw {
			if src.Uint64n(3) == 0 {
				g++
			}
			raw[i] = Elem{Key: g, Val: src.Uint64n(100), Kind: Real}
		}
		// Reference: suffix sums within group.
		want := make([]uint64, n)
		for i := 0; i < n; i++ {
			sum := uint64(0)
			for j := i; j < n && raw[j].Key == raw[i].Key; j++ {
				sum += raw[j].Val
			}
			want[i] = sum
		}
		s := mem.NewSpace()
		a := mem.FromSlice(s, raw)
		ok := true
		AggregateSuffix(forkjoin.Serial(), s, a,
			func(e Elem) uint64 { return e.Key },
			func(e Elem) uint64 { return e.Val },
			func(x, y uint64) uint64 { return x + y },
			func(e Elem, i int, agg uint64) Elem {
				if agg != want[i] {
					ok = false
				}
				return e
			})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectionNetworkSorts(t *testing.T) {
	src := prng.New(4)
	for _, n := range []int{1, 2, 5, 16, 33} {
		raw := make([]Elem, n)
		for i := range raw {
			raw[i] = Elem{Key: src.Uint64n(50), Val: uint64(i), Kind: Real}
		}
		s := mem.NewSpace()
		a := mem.FromSlice(s, raw)
		SelectionNetwork{}.Sort(forkjoin.Serial(), s, a, 0, n, func(e Elem) uint64 { return e.Key })
		for i := 1; i < n; i++ {
			if a.Data()[i-1].Key > a.Data()[i].Key {
				t.Fatalf("n=%d not sorted at %d", n, i)
			}
		}
	}
}

func TestSelectionNetworkSubrange(t *testing.T) {
	s := mem.NewSpace()
	raw := []Elem{{Key: 9}, {Key: 3}, {Key: 2}, {Key: 1}, {Key: 7}}
	a := mem.FromSlice(s, raw)
	SelectionNetwork{}.Sort(forkjoin.Serial(), s, a, 1, 3, func(e Elem) uint64 { return e.Key })
	keys := []uint64{9, 1, 2, 3, 7}
	for i, k := range keys {
		if a.Data()[i].Key != k {
			t.Fatalf("subrange sort wrong: %+v", a.Data())
		}
	}
}

func binPlaceRef(in []Elem, beta, binZ int, groupOf func(Elem) uint64) [][]uint64 {
	bins := make([][]uint64, beta)
	for _, e := range in {
		if e.Kind == Real {
			g := int(groupOf(e))
			if len(bins[g]) < binZ {
				bins[g] = append(bins[g], e.Val)
			}
		}
	}
	return bins
}

func TestBinPlaceBasic(t *testing.T) {
	const beta, binZ = 4, 4
	groupOf := func(e Elem) uint64 { return e.Key }
	in := []Elem{
		{Key: 2, Val: 100, Kind: Real},
		{Key: 0, Val: 101, Kind: Real},
		{Key: 2, Val: 102, Kind: Real},
		{Key: 3, Val: 103, Kind: Real},
		{},
		{},
		{Key: 0, Val: 104, Kind: Real},
		{},
	}
	s := mem.NewSpace()
	a := mem.FromSlice(s, in)
	out := mem.Alloc[Elem](s, beta*binZ)
	lost := BinPlace(forkjoin.Serial(), s, a, out, beta, binZ, groupOf, SelectionNetwork{})
	if lost != 0 {
		t.Fatalf("lost %d elements", lost)
	}
	want := binPlaceRef(in, beta, binZ, groupOf)
	for g := 0; g < beta; g++ {
		var got []uint64
		realsEnded := false
		for k := 0; k < binZ; k++ {
			e := out.Data()[g*binZ+k]
			if e.Kind == Real {
				if groupOf(e) != uint64(g) {
					t.Fatalf("bin %d contains element of group %d", g, groupOf(e))
				}
				if realsEnded {
					t.Fatalf("bin %d has a real after a filler", g)
				}
				got = append(got, e.Val)
			} else {
				realsEnded = true
			}
			if e.Kind == Temp {
				t.Fatal("temp leaked into output")
			}
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		w := append([]uint64(nil), want[g]...)
		sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
		if len(got) != len(w) {
			t.Fatalf("bin %d has %d reals, want %d", g, len(got), len(w))
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("bin %d contents %v, want %v", g, got, w)
			}
		}
	}
}

func TestBinPlaceOverflowCounted(t *testing.T) {
	const beta, binZ = 2, 2
	groupOf := func(e Elem) uint64 { return e.Key }
	in := make([]Elem, 4)
	for i := range in {
		in[i] = Elem{Key: 0, Val: uint64(i), Kind: Real} // all to bin 0, capacity 2
	}
	s := mem.NewSpace()
	a := mem.FromSlice(s, in)
	out := mem.Alloc[Elem](s, beta*binZ)
	lost := BinPlace(forkjoin.Serial(), s, a, out, beta, binZ, groupOf, SelectionNetwork{})
	if lost != 2 {
		t.Fatalf("lost = %d, want 2", lost)
	}
}

func TestBinPlaceTraceOblivious(t *testing.T) {
	const beta, binZ = 4, 4
	groupOf := func(e Elem) uint64 { return e.Key }
	run := func(keys []uint64) *forkjoin.Metrics {
		in := make([]Elem, len(keys))
		for i, k := range keys {
			in[i] = Elem{Key: k, Val: uint64(i), Kind: Real}
		}
		s := mem.NewSpace()
		a := mem.FromSlice(s, in)
		out := mem.Alloc[Elem](s, beta*binZ)
		return forkjoin.RunMetered(forkjoin.MeterOpts{EnableTrace: true}, func(c *forkjoin.Ctx) {
			BinPlace(c, s, a, out, beta, binZ, groupOf, SelectionNetwork{})
		})
	}
	// Very different bin assignments, same input length → identical trace.
	a := run([]uint64{0, 0, 0, 0, 1, 1, 2, 3})
	b := run([]uint64{3, 2, 1, 0, 3, 2, 1, 0})
	if !a.Trace.Equal(b.Trace) {
		t.Fatal("bin placement trace depends on bin choices")
	}
}

func TestSendReceiveBasic(t *testing.T) {
	s := mem.NewSpace()
	sources := mem.FromSlice(s, []Elem{
		{Key: 10, Val: 100, Kind: Real},
		{Key: 20, Val: 200, Kind: Real},
		{Key: 30, Val: 300, Kind: Real},
	})
	dests := mem.FromSlice(s, []Elem{
		{Key: 20, Kind: Real},
		{Key: 99, Kind: Real}, // not found
		{Key: 10, Kind: Real},
		{Key: 10, Kind: Real}, // duplicate receivers OK
	})
	out := SendReceive(forkjoin.Serial(), s, sources, dests, SelectionNetwork{})
	if out.Len() != 4 {
		t.Fatalf("out len = %d", out.Len())
	}
	d := out.Data()
	if d[0].Kind != Real || d[0].Val != 200 {
		t.Fatalf("dest 0 = %+v", d[0])
	}
	if d[1].Kind != Filler {
		t.Fatalf("dest 1 should be ⊥, got %+v", d[1])
	}
	if d[2].Kind != Real || d[2].Val != 100 || d[3].Kind != Real || d[3].Val != 100 {
		t.Fatalf("dests 2,3 = %+v %+v", d[2], d[3])
	}
	for j, e := range d {
		if e.Aux != uint64(j) {
			t.Fatalf("dest %d out of order (Aux=%d)", j, e.Aux)
		}
	}
}

// TestSendReceiveNonRealDestsAndTopKey: keys take any value below InfKey —
// a source at InfKey-1 is found, and keys 0 and 2^63 stay apart — and
// non-Real destinations come back ⊥ in their own slots even when they
// request a key a source holds.
func TestSendReceiveNonRealDestsAndTopKey(t *testing.T) {
	const top = InfKey - 1
	s := mem.NewSpace()
	sources := mem.FromSlice(s, []Elem{
		{Key: top, Val: 7, Kind: Real},
		{Key: 0, Val: 10, Kind: Real},
		{Key: 1 << 63, Val: 8, Kind: Real},
		{Key: 3, Val: 9, Kind: Real},
	})
	dests := mem.FromSlice(s, []Elem{
		{Key: top, Kind: Filler}, // non-Real: ⊥ although the key exists
		{Key: top, Kind: Real},
		{Key: 3, Kind: Temp},
		{Key: 1 << 63, Kind: Real},
		{Key: top - 1, Kind: Real}, // not found
		{Key: 0, Kind: Real},
	})
	out := SendReceive(forkjoin.Serial(), s, sources, dests, SelectionNetwork{})
	want := []struct {
		ok  bool
		val uint64
	}{{false, 0}, {true, 7}, {false, 0}, {true, 8}, {false, 0}, {true, 10}}
	for j, e := range out.Data() {
		if (e.Kind == Real) != want[j].ok || (want[j].ok && e.Val != want[j].val) || e.Aux != uint64(j) {
			t.Fatalf("dest %d = %+v, want found=%t val=%d", j, e, want[j].ok, want[j].val)
		}
	}
}

func TestSendReceiveRandomVsMap(t *testing.T) {
	f := func(seed uint64) bool {
		src := prng.New(seed)
		ns := int(src.Uint64n(20)) + 1
		nd := int(src.Uint64n(20)) + 1
		ref := map[uint64]uint64{}
		srcElems := make([]Elem, 0, ns)
		for len(ref) < ns {
			k := src.Uint64n(40)
			if _, dup := ref[k]; dup {
				continue
			}
			v := src.Uint64()
			ref[k] = v
			srcElems = append(srcElems, Elem{Key: k, Val: v, Kind: Real})
		}
		dstElems := make([]Elem, nd)
		for i := range dstElems {
			dstElems[i] = Elem{Key: src.Uint64n(60), Kind: Real}
		}
		s := mem.NewSpace()
		sa := mem.FromSlice(s, srcElems)
		da := mem.FromSlice(s, dstElems)
		out := SendReceive(forkjoin.Serial(), s, sa, da, SelectionNetwork{})
		for j, e := range out.Data() {
			want, found := ref[dstElems[j].Key]
			if found != (e.Kind == Real) {
				return false
			}
			if found && e.Val != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSendReceiveTraceOblivious(t *testing.T) {
	run := func(sk, dk []uint64) *forkjoin.Metrics {
		s := mem.NewSpace()
		srcs := make([]Elem, len(sk))
		for i, k := range sk {
			srcs[i] = Elem{Key: k, Val: k + 1, Kind: Real}
		}
		dsts := make([]Elem, len(dk))
		for i, k := range dk {
			dsts[i] = Elem{Key: k, Kind: Real}
		}
		sa := mem.FromSlice(s, srcs)
		da := mem.FromSlice(s, dsts)
		return forkjoin.RunMetered(forkjoin.MeterOpts{EnableTrace: true}, func(c *forkjoin.Ctx) {
			SendReceive(c, s, sa, da, SelectionNetwork{})
		})
	}
	a := run([]uint64{1, 2, 3, 4}, []uint64{1, 1, 1})
	b := run([]uint64{9, 8, 7, 6}, []uint64{5, 4, 9})
	if !a.Trace.Equal(b.Trace) {
		t.Fatal("send-receive trace depends on keys")
	}
}

func TestSendReceiveParallelMatchesSerial(t *testing.T) {
	srcElems := make([]Elem, 64)
	for i := range srcElems {
		srcElems[i] = Elem{Key: uint64(i), Val: uint64(i * 7), Kind: Real}
	}
	dstElems := make([]Elem, 100)
	for i := range dstElems {
		dstElems[i] = Elem{Key: uint64(i % 80), Kind: Real}
	}
	s := mem.NewSpace()
	var got []Elem
	forkjoin.RunParallel(4, func(c *forkjoin.Ctx) {
		sa := mem.FromSlice(s, srcElems)
		da := mem.FromSlice(s, dstElems)
		out := SendReceive(c, s, sa, da, SelectionNetwork{})
		got = append([]Elem(nil), out.Data()...)
	})
	for j, e := range got {
		k := uint64(j % 80)
		if k < 64 {
			if e.Kind != Real || e.Val != k*7 {
				t.Fatalf("dest %d = %+v", j, e)
			}
		} else if e.Kind != Filler {
			t.Fatalf("dest %d should be ⊥", j)
		}
	}
}

// TestRouteTraceOblivious: per mode (sorted union, merge of
// sorted word planes) the trace is a function of (ns, nd) alone —
// different keys, duplicate and missing keys and inert entries on either
// side leave it unchanged — while another shape or the other mode changes
// it.
func TestRouteTraceOblivious(t *testing.T) {
	body := func(srt ScheduledSorter, sk, dk []uint64, real func(i int) bool) oblivtest.Body {
		return func(c *forkjoin.Ctx, sp *mem.Space) {
			if srt == nil {
				var keys, vals []uint64
				for i, k := range sk {
					if real(i) {
						keys, vals = append(keys, k), append(vals, k+1)
					}
				}
				for len(keys) < len(sk) { // inert sources key InfKey and go last
					keys, vals = append(keys, InfKey), append(vals, 0)
				}
				dsts := mem.FromSlice(sp, dk)
				NewRouter(sp, len(vals), len(dk)).Route(c, mem.FromSlice(sp, keys), mem.FromSlice(sp, vals), dsts, dsts, mem.Alloc[uint64](sp, len(dk)))
				return
			}
			srcs := make([]Elem, len(sk))
			for i, k := range sk {
				srcs[i] = Elem{Key: k, Val: k + 1, Kind: Real}
				if !real(i) {
					srcs[i].Kind = Filler
				}
			}
			dsts := make([]Elem, len(dk))
			for j, k := range dk {
				dsts[j] = Elem{Key: k, Kind: Real}
			}
			SendReceive(c, sp, mem.FromSlice(sp, srcs), mem.FromSlice(sp, dsts), srt)
		}
	}
	all := func(int) bool { return true }
	odd := func(i int) bool { return i%2 == 1 }
	for _, srt := range []ScheduledSorter{SelectionNetwork{}, nil} {
		label := fmt.Sprintf("sorter %v", srt)
		oblivtest.FingerprintEqual(t, label,
			body(srt, []uint64{1, 2, 3, 4, 5}, []uint64{1, 1, 2}, all),
			body(srt, []uint64{0, 7, 7, 9, 12}, []uint64{3, 8, 40}, odd),
			body(srt, []uint64{20, 21, 22, 23, 24}, []uint64{20, 24, 24}, all))
		oblivtest.Different(t, label+" shape",
			body(srt, []uint64{1, 2, 3, 4, 5}, []uint64{1, 1, 2}, all),
			body(srt, []uint64{1, 2, 3, 4}, []uint64{1, 1, 2, 3}, all))
	}
	oblivtest.Different(t, "union vs merge", body(SelectionNetwork{}, []uint64{1, 2, 3}, []uint64{1, 2}, all), body(nil, []uint64{1, 2, 3}, []uint64{1, 2}, all))
}
