package obliv_test

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/obliv/oblivtest"
	"oblivmc/internal/prng"
)

// sendRecvCase draws a send-receive input with both sides in key order:
// sources ascending by Key with Real entries first at equal keys,
// destinations in key order with every non-Real one last. Few distinct
// keys, so duplicate source and destination keys are common, about one
// entry in five not Real on either side, and now and then the largest key
// Router.Route takes. Each destination's Aux is its draw index.
func sendRecvCase(seed uint64, ns, nd int) (srcs, dsts []obliv.Elem) {
	src := prng.New(seed)
	key := func() uint64 {
		if src.Uint64n(16) == 0 {
			return obliv.MaxKey - 1
		}
		return src.Uint64n(uint64(ns+nd)/2 + 2)
	}
	kind := func() obliv.Kind {
		switch src.Uint64n(10) {
		case 0:
			return obliv.Filler
		case 1:
			return obliv.Temp
		}
		return obliv.Real
	}
	srcs = make([]obliv.Elem, ns)
	for i := range srcs {
		srcs[i] = obliv.Elem{Key: key(), Val: src.Uint64(), Aux: src.Uint64(), Kind: kind()}
	}
	slices.SortStableFunc(srcs, func(x, y obliv.Elem) int {
		return cmp.Or(cmp.Compare(x.Key, y.Key), cmp.Compare(realRank(x), realRank(y)))
	})
	dsts = make([]obliv.Elem, nd)
	for j := range dsts {
		dsts[j] = obliv.Elem{Key: key(), Val: src.Uint64(), Aux: uint64(j), Kind: kind()}
	}
	slices.SortStableFunc(dsts, func(x, y obliv.Elem) int {
		return cmp.Or(cmp.Compare(realRank(x), realRank(y)), cmp.Compare(x.Key, y.Key))
	})
	return srcs, dsts
}

// route routes on a fresh router sized for the shape.
func route(c *forkjoin.Ctx, sp *mem.Space, srcKeys, srcVals, dstKeys, dstVals, out *mem.Array[uint64]) {
	obliv.NewRouter(sp, srcVals.Len(), out.Len()).Route(c, srcKeys, srcVals, dstKeys, dstVals, out)
}

func realRank(e obliv.Elem) int {
	if e.Kind == obliv.Real {
		return 0
	}
	return 1
}

// planesOf is one side of a send-receive as Router.Route takes it: a
// Real entry keys its Key, and every other entry InfKey, which sends
// nothing and reads ⊥. The stable sort keeps equal-key sources in draw
// order, so the first one still wins.
func planesOf(es []obliv.Elem) (keys, vals []uint64) {
	es = slices.Clone(es)
	for i := range es {
		if es[i].Kind != obliv.Real {
			es[i].Key = obliv.InfKey
		}
	}
	slices.SortStableFunc(es, func(x, y obliv.Elem) int { return cmp.Compare(x.Key, y.Key) })
	for _, e := range es {
		keys, vals = append(keys, e.Key), append(vals, e.Val)
	}
	return keys, vals
}

// TestRouteMatchesSendReceive: the merge of word planes routes exactly
// SendReceive's values — and, where SendReceive answers ⊥, the
// destination's own value — on the serial and pool executors, with
// duplicate source keys (the first sends), the largest legal key and inert
// entries on either side; and a nil key plane keys entry i by i. (Sorted
// sources against unsorted requests are pram.Gatherer's case, tested
// there.)
func TestRouteMatchesSendReceive(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 5, 8, 13, 31, 64, 100}
	execs := []struct {
		name string
		run  func(func(c *forkjoin.Ctx))
	}{
		{"serial", func(f func(c *forkjoin.Ctx)) { f(forkjoin.Serial()) }},
		{"pool", func(f func(c *forkjoin.Ctx)) { forkjoin.RunParallel(4, f) }},
	}
	seed := uint64(0)
	for _, ns := range sizes {
		for _, nd := range sizes {
			seed++
			srcs, dsts := sendRecvCase(seed, ns, nd)
			sp := mem.NewSpace()
			union := obliv.SendReceive(forkjoin.Serial(), sp, mem.FromSlice(sp, srcs), mem.FromSlice(sp, dsts), obliv.SelectionNetwork{}).Data()
			want := make([]uint64, nd)
			for j, e := range union {
				want[j] = dsts[j].Val
				if e.Kind == obliv.Real {
					want[j] = e.Val
				}
			}
			sk, sv := planesOf(srcs)
			dk, dv := planesOf(dsts) // non-Real destinations are already last
			for _, ex := range execs {
				var got []uint64
				ex.run(func(c *forkjoin.Ctx) {
					sp := mem.NewSpace()
					out := mem.Alloc[uint64](sp, nd)
					route(c, sp, mem.FromSlice(sp, sk), mem.FromSlice(sp, sv), mem.FromSlice(sp, dk), mem.FromSlice(sp, dv), out)
					got = append([]uint64(nil), out.Data()...)
				})
				if !slices.Equal(got, want) {
					t.Fatalf("ns=%d nd=%d on %s:\n got %v\nwant %v", ns, nd, ex.name, got, want)
				}
			}

			// The same sources sent to a memory of ns cells keyed by index:
			// cell j reads the first Real source keyed j, else its own value,
			// here written straight back into the cells.
			cells := make([]uint64, ns)
			wantCells := make([]uint64, ns)
			for j := range cells {
				cells[j] = uint64(j) * 3
				wantCells[j] = cells[j]
				for _, e := range srcs {
					if e.Kind == obliv.Real && e.Key == uint64(j) {
						wantCells[j] = e.Val
						break
					}
				}
			}
			forkjoin.RunParallel(2, func(c *forkjoin.Ctx) {
				sp := mem.NewSpace()
				m := mem.FromSlice(sp, cells)
				route(c, sp, mem.FromSlice(sp, sk), mem.FromSlice(sp, sv), nil, m, m)
				if !slices.Equal(m.Data(), wantCells) {
					t.Errorf("ns=%d into %d cells:\n got %v\nwant %v", ns, ns, m.Data(), wantCells)
				}
			})
		}
	}
}

// TestRouterServesSmallerShapes: one router, sized for the largest shape,
// routes a sequence of smaller and equal shapes — interleaved, so each
// prefix is reused after a different one — exactly as a fresh router
// does, on the serial, pool and metered executors; a shape beyond its
// slots panics.
func TestRouterServesSmallerShapes(t *testing.T) {
	shapes := [][2]int{{100, 100}, {3, 5}, {64, 64}, {0, 1}, {13, 31}, {3, 5}, {1, 0}, {100, 100}, {31, 13}}
	execs := []struct {
		name string
		run  func(func(c *forkjoin.Ctx))
	}{
		{"serial", func(f func(c *forkjoin.Ctx)) { f(forkjoin.Serial()) }},
		{"pool", func(f func(c *forkjoin.Ctx)) { forkjoin.RunParallel(2, f) }},
		{"metered", func(f func(c *forkjoin.Ctx)) { forkjoin.RunMetered(forkjoin.MeterOpts{}, f) }},
	}
	for _, ex := range execs {
		ex.run(func(c *forkjoin.Ctx) {
			sp := mem.NewSpace()
			r := obliv.NewRouter(sp, 100, 100)
			for k, sh := range shapes {
				srcs, dsts := sendRecvCase(uint64(200+k), sh[0], sh[1])
				sk, sv := planesOf(srcs)
				dk, dv := planesOf(dsts)
				want := mem.Alloc[uint64](sp, sh[1])
				route(c, sp, mem.FromSlice(sp, sk), mem.FromSlice(sp, sv), mem.FromSlice(sp, dk), mem.FromSlice(sp, dv), want)
				got := mem.Alloc[uint64](sp, sh[1])
				r.Route(c, mem.FromSlice(sp, sk), mem.FromSlice(sp, sv), mem.FromSlice(sp, dk), mem.FromSlice(sp, dv), got)
				if !slices.Equal(got.Data(), want.Data()) {
					t.Fatalf("%s shape %d (%d, %d) on a 256-slot router:\n got %v\nwant %v", ex.name, k, sh[0], sh[1], got.Data(), want.Data())
				}
			}
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a 512-slot shape routed on a 256-slot router", ex.name)
				}
			}()
			r.Route(c, nil, mem.Alloc[uint64](sp, 200), nil, nil, mem.Alloc[uint64](sp, 57))
		})
	}
}

// wantSendReceive is SendReceive's reference: a map from each key to the
// first Real source holding it, in input order; a Real destination with a
// key in it reads that source's value, every other one ⊥ (Filler, 0).
func wantSendReceive(srcs, dsts []obliv.Elem) []obliv.Elem {
	first := map[uint64]uint64{}
	for _, s := range srcs {
		if _, dup := first[s.Key]; s.Kind == obliv.Real && !dup {
			first[s.Key] = s.Val
		}
	}
	want := make([]obliv.Elem, len(dsts))
	for j, d := range dsts {
		want[j] = obliv.Elem{Key: d.Key, Aux: uint64(j), Kind: obliv.Filler}
		if v, ok := first[d.Key]; ok && d.Kind == obliv.Real {
			want[j].Val, want[j].Kind = v, obliv.Real
		}
	}
	return want
}

// TestSendReceiveMatchesMap: SendReceive equals its map reference on the
// metered, serial and pool executors at 0, 1 and 2^k±1 entries a side,
// with duplicate source keys (the first in input order sends), non-Real
// sources and destinations (Filler and Temp, as the ORAM's multicast
// passes them), the keys 0, 2^62, 2^63 and KeyLimit−1 (InfKey−1), and
// with the sources aliasing the destinations, as the benchmark harness's
// probe calls it.
func TestSendReceiveMatchesMap(t *testing.T) {
	pool := []uint64{0, 1, 2, 5, 1 << 62, 1 << 63, obliv.InfKey - 1}
	draw := func(src *prng.Source, n int) []obliv.Elem {
		es := make([]obliv.Elem, n)
		for i := range es {
			es[i] = obliv.Elem{Key: pool[src.Uint64n(uint64(len(pool)))], Val: src.Uint64(), Aux: src.Uint64(), Kind: obliv.Real}
			switch src.Uint64n(8) {
			case 0:
				es[i].Kind = obliv.Filler
			case 1:
				es[i].Kind = obliv.Temp
			}
		}
		return es
	}
	sizes := []int{0, 1, 3, 5, 7, 9, 31, 33, 127, 129}
	for _, ns := range sizes {
		for _, nd := range sizes {
			src := prng.New(uint64(1000*ns + nd))
			srcs, dsts := draw(src, ns), draw(src, nd)
			label := fmt.Sprintf("ns=%d nd=%d", ns, nd)
			var got []obliv.Elem
			oblivtest.SameOnEveryExecutor(t, label, func(c *forkjoin.Ctx, sp *mem.Space) []obliv.Elem {
				got = slices.Clone(obliv.SendReceive(c, sp, mem.FromSlice(sp, srcs), mem.FromSlice(sp, dsts), nil).Data())
				return got
			})
			if want := wantSendReceive(srcs, dsts); !slices.Equal(got, want) {
				t.Fatalf("%s:\n got %v\nwant %v", label, got, want)
			}
		}
		es := draw(prng.New(uint64(ns)), ns)
		var got []obliv.Elem
		oblivtest.SameOnEveryExecutor(t, fmt.Sprintf("aliased n=%d", ns), func(c *forkjoin.Ctx, sp *mem.Space) []obliv.Elem {
			a := mem.FromSlice(sp, es)
			got = slices.Clone(obliv.SendReceive(c, sp, a, a, nil).Data())
			return got
		})
		if want := wantSendReceive(es, es); !slices.Equal(got, want) {
			t.Fatalf("aliased n=%d:\n got %v\nwant %v", ns, got, want)
		}
	}
}
