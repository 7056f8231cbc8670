package obliv

import (
	"fmt"
	"slices"
	"testing"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv/oblivtest"
	"oblivmc/internal/prng"
)

// The differential tests of this package's block kernels: each runs under
// the metered executor (the per-access specification), the serial executor
// and a 2-worker pool (the raw kernels) and must leave identical bytes.

// keyedState is a snapshot of an element array and its key planes.
type keyedState struct {
	Elems  []Elem
	Planes [][]uint64
}

func snapshotKeyed(a *mem.Array[Elem], ks *KeySchedule) keyedState {
	return keyedState{Elems: append([]Elem(nil), a.Data()...), Planes: planesOf(ks)}
}

// planesOf is a copy of the word planes of ks.
func planesOf(ks *KeySchedule) [][]uint64 {
	var ps [][]uint64
	for p := 0; p < ks.Width(); p++ {
		ps = append(ps, append([]uint64(nil), ks.Plane(p).Data()...))
	}
	return ps
}

// dupHeavyInput allocates n elements over very few distinct key words,
// tags and positions (so word ties, TiePos ties and full ties all occur),
// about one in five a filler, every field populated, with a width-w
// schedule of equally repetitive words.
func dupHeavyInput(sp *mem.Space, seed uint64, n, w int) (*mem.Array[Elem], *KeySchedule) {
	src := prng.New(seed)
	a := mem.Alloc[Elem](sp, n)
	ks := AllocKeySchedule(sp, n, w)
	for i := 0; i < n; i++ {
		e := Elem{
			Key: src.Uint64n(4), Key2: src.Uint64n(3), Val: src.Uint64(), Aux: src.Uint64n(5),
			Lbl: src.Uint64(), Tag: uint32(src.Uint64n(2)), Kind: Real, Mark: uint8(src.Uint64n(2)),
		}
		switch src.Uint64n(10) {
		case 0:
			e.Kind = Filler
		case 1:
			e.Kind = Temp
		}
		a.Data()[i] = e
		for p := 0; p < w; p++ {
			ks.Plane(p).Data()[i] = src.Uint64n(3) << (61 * src.Uint64n(2)) // low and high words
		}
	}
	return a, ks
}

// dupHeavyPlanes allocates w word planes of n slots over very few distinct
// low and high words, so key ties and full ties both occur; the high words
// 2^62 and 2^63 lie on both sides of the sign bit, so only an unsigned
// compare orders them.
func dupHeavyPlanes(sp *mem.Space, seed uint64, n, w int) *KeySchedule {
	src := prng.New(seed)
	ws := AllocKeySchedule(sp, n, w)
	for p := 0; p < w; p++ {
		for i := range n {
			ws.Plane(p).Data()[i] = src.Uint64n(3) << (62 * src.Uint64n(2))
		}
	}
	return ws
}

// TestCexKernelMatchesPerAccess holds the block comparator's raw runs and
// serial leaf layers to the metered per-access spec: compare-exchange by
// cached key in both directions, the plane sort over one or two key planes
// with no, one or two carried planes (two: the per-access fallback),
// recording, and replay over word planes — on every raw-kernel path the
// machine has (forEachPath).
func TestCexKernelMatchesPerAccess(t *testing.T) { forEachPath(t, cexKernelMatchesPerAccess) }

func cexKernelMatchesPerAccess(t *testing.T) {
	for _, w := range []int{1, 2, 3} { // 3: the generic-width fallback
		for _, asc := range []bool{true, false} {
			label := fmt.Sprintf("w=%d asc=%v", w, asc)
			oblivtest.SameOnEveryExecutor(t, "run "+label, func(c *forkjoin.Ctx, sp *mem.Space) keyedState {
				a, ks := dupHeavyInput(sp, 21, 160, w)
				kern := NewCexKernel(c, a, ks)
				kern.run(3, 61, 57, asc)
				kern.run(0, 1, 1, asc)
				return snapshotKeyed(a, ks)
			})
			oblivtest.SameOnEveryExecutor(t, "layers "+label, func(c *forkjoin.Ctx, sp *mem.Space) keyedState {
				a, ks := dupHeavyInput(sp, 22, 140, w)
				kern := NewCexKernel(c, a, ks)
				for j := 64; j > 0; j >>= 1 {
					kern.Layer(5, 128, j, 0, asc, 0) // a merge
				}
				for j := 8; j > 0; j >>= 1 {
					kern.Layer(5, 128, j, 16, asc, 0) // a sort layer group: direction flips every 16
				}
				return snapshotKeyed(a, ks)
			})
		}
		// The plane mode's serial leaf loop: a merge, then a sort layer
		// group whose direction flips every 16 — over w planes, the first
		// one or two the key — recording from mid-word.
		for _, k := range []int{1, 2} {
			if k > w {
				continue
			}
			oblivtest.SameOnEveryExecutor(t, fmt.Sprintf("plane layers w=%d k=%d", w, k), func(c *forkjoin.Ctx, sp *mem.Space) layerState {
				ws := dupHeavyPlanes(sp, 25, 140, w)
				rec := mem.Alloc[uint64](sp, 16)
				kern := NewCexKernelPlanes(c, ws, k, rec)
				q := 5
				for j := 64; j > 0; j >>= 1 {
					kern.Layer(5, 128, j, 0, false, q)
					q += 64
				}
				for j := 8; j > 0; j >>= 1 {
					kern.Layer(5, 128, j, 16, true, q)
					q += 64
				}
				kern.pairs(3, 64, 0, 57, 0, true, q)
				return layerState{Keyed: keyedState{Planes: planesOf(ws)}, Record: append([]uint64(nil), rec.Data()...)}
			})
		}
		// The replay mode's serial leaf loop over w word planes, on bits
		// that start mid-word.
		oblivtest.SameOnEveryExecutor(t, fmt.Sprintf("replay layers w=%d", w), func(c *forkjoin.Ctx, sp *mem.Space) [][]uint64 {
			src := prng.New(24)
			vs := slotPlanes(sp, 140, w)
			rec := mem.Alloc[uint64](sp, 8)
			for i := range rec.Data() {
				rec.Data()[i] = src.Uint64()
			}
			kern := NewCexKernelReplay(c, vs, rec)
			for j := 1; j <= 64; j <<= 1 {
				kern.Layer(5, 128, j, 0, true, 7*(j-1))
			}
			kern.pairs(3, 64, 0, 57, 0, true, 9)
			return planesOf(vs)
		})
	}
}

// TestCexKernelOrdersLikeComparator pins the raw comparator's outcome
// against first principles rather than against the per-access code: after a
// run every pair is ordered by (words, then TiePos).
func TestCexKernelOrdersLikeComparator(t *testing.T) {
	sp := mem.NewSpace()
	a, ks := dupHeavyInput(sp, 23, 512, 2)
	kern := NewCexKernel(forkjoin.Serial(), a, ks)
	kern.run(0, 256, 256, true)
	for i := 0; i < 256; i++ {
		x, y := a.Data()[i], a.Data()[i+256]
		for p := 0; p < 2; p++ {
			kx, ky := ks.Plane(p).Data()[i], ks.Plane(p).Data()[i+256]
			if kx != ky {
				if kx > ky {
					t.Fatalf("pair %d out of order on word %d", i, p)
				}
				break
			}
			if p == 1 && PosAfter(x, y) {
				t.Fatalf("pair %d: equal words, TiePos order violated", i)
			}
		}
	}
}

// layerState is what a sequence of Layers leaves: the array and planes,
// the swap record (when recorded) and the word planes after its replay.
type layerState struct {
	Keyed    keyedState
	Record   []uint64
	Replayed [][]uint64
}

// slotPlanes allocates w word planes of n slots: plane 0 numbers the slots
// and plane p > 0 holds a multiple of the slot number, so a replay's result
// can be read back as a permutation.
func slotPlanes(sp *mem.Space, n, w int) *KeySchedule {
	vs := AllocKeySchedule(sp, n, w)
	for p := 0; p < w; p++ {
		for r := range n {
			vs.Plane(p).Data()[r] = uint64(r) * uint64(2*p+1)
		}
	}
	return vs
}

// checkPlanesReplayed reports the first slot i at which the replayed
// planes vs do not carry home the slot number of the entry that came from
// i: every plane of the sorted planes at slot vs[0][i] must hold what orig
// held at i, and every other plane of vs must carry the same slot.
func checkPlanesReplayed(orig, sorted [][]uint64, vs *KeySchedule) (int, bool) {
	seen := make([]bool, len(sorted[0]))
	for i := range orig[0] {
		r := vs.Plane(0).Data()[i]
		if r >= uint64(len(seen)) || seen[r] {
			return i, false
		}
		seen[r] = true
		for p := range orig {
			if sorted[p][r] != orig[p][i] {
				return i, false
			}
		}
		for p := 1; p < vs.Width(); p++ {
			if vs.Plane(p).Data()[i] != r*uint64(2*p+1) {
				return i, false
			}
		}
	}
	return 0, true
}

// TestLayerMatchesPerAccess holds the forked layer driver's raw leaves to
// the metered per-access spec in all three modes of the block comparator
// over every layer shape the keyed networks use — butterfly layers (j
// divides cnt), half-cleaner runs (cnt < j) over several blocks, alt
// directions, layers long enough that a pool leaf ends mid-run — and over
// the top-k tournament's whole layer sequence. The plane rows sort k = 1 or 2 key
// planes carrying 0, 1 or 2 more (2: the per-access fallback), compare the
// planes and the record bits, then replay the record over w = 1, 2 or 3
// word planes and check that it carries every slot home. Recording shapes
// keep each leaf's bits in whole words (see Layer); the ragged shapes,
// whose pool leaves also end mid-block, sort without recording. It runs
// on every raw-kernel path the machine has (forEachPath).
func TestLayerMatchesPerAccess(t *testing.T) { forEachPath(t, layerMatchesPerAccess) }

func layerMatchesPerAccess(t *testing.T) {
	shapes := []struct {
		name   string
		layers []layerShape
		record bool
	}{
		{"butterfly", []layerShape{{2, 64, 32, 8, true}, {1, 4096, 2048, 256, true}, {1, 32, 16, 1, false}}, true},
		{"half-cleaner", []layerShape{{4, 32, 5, 16, true}, {128, 64, 16, 32, true}, {1, 4096, 2048, 2048, false}}, true},
		{"tournament", tournamentLayers(4096, 16), true},
		{"one-comparator", []layerShape{{1, 2, 1, 1, false}}, true},
		{"ragged", []layerShape{{3, 1536, 768, 256, true}, {90, 64, 23, 32, true}}, false},
	}
	for _, sh := range shapes {
		n, words := 0, 0
		for _, s := range sh.layers {
			n = max(n, s.nb*s.gap)
			words += (s.nb*s.cnt + 63) >> 6
		}
		for _, flip := range []bool{false, true} { // flip: every layer's alt inverted
			for _, w := range []int{1, 2, 3} {
				label := fmt.Sprintf("%s w=%d flip=%v", sh.name, w, flip)
				oblivtest.SameOnEveryExecutor(t, label+" cex", func(c *forkjoin.Ctx, sp *mem.Space) keyedState {
					a, ks := dupHeavyInput(sp, uint64(n+w), n, w)
					for _, s := range sh.layers {
						Layer(c, NewCexKernel(c, a, ks), 0, s.nb, s.gap, s.cnt, s.j, s.alt != flip)
					}
					return snapshotKeyed(a, ks)
				})
			}
			for _, k := range []int{1, 2} {
				for carried := 0; carried <= 2; carried++ {
					label := fmt.Sprintf("%s planes k=%d carried=%d flip=%v", sh.name, k, carried, flip)
					oblivtest.SameOnEveryExecutor(t, label, func(c *forkjoin.Ctx, sp *mem.Space) layerState {
						ws := dupHeavyPlanes(sp, uint64(n+k+carried), n, k+carried)
						if !sh.record {
							for _, s := range sh.layers {
								Layer(c, NewCexKernelPlanes(c, ws, k, nil), 0, s.nb, s.gap, s.cnt, s.j, s.alt != flip)
							}
							return layerState{Keyed: keyedState{Planes: planesOf(ws)}}
						}
						orig := planesOf(ws)
						rec := mem.Alloc[uint64](sp, words)
						for i := range rec.Data() {
							rec.Data()[i] = 0x5555_5555_5555_5555 // stale bits must be overwritten
						}
						qs := make([]int, len(sh.layers))
						for l, s := range sh.layers {
							if l > 0 {
								p := sh.layers[l-1]
								qs[l] = qs[l-1] + (p.nb*p.cnt+63)&^63
							}
							Layer(c, NewCexKernelPlanes(c, ws, k, rec), qs[l], s.nb, s.gap, s.cnt, s.j, s.alt != flip)
						}
						st := layerState{Keyed: keyedState{Planes: planesOf(ws)}, Record: append([]uint64(nil), rec.Data()...)}
						vs := slotPlanes(sp, n, 1+(k+carried)%3)
						for l := len(sh.layers) - 1; l >= 0; l-- {
							s := sh.layers[l]
							Layer(c, NewCexKernelReplay(c, vs, rec), qs[l], s.nb, s.gap, s.cnt, s.j, s.alt != flip)
						}
						st.Replayed = planesOf(vs)
						if i, ok := checkPlanesReplayed(orig, st.Keyed.Planes, vs); !ok {
							t.Errorf("%s: the replay did not carry slot %d home", label, i) // Errorf: may run on a pool worker
						}
						return st
					})
				}
			}
		}
	}
}

// layerShape is one Layer's arguments.
type layerShape struct {
	nb, gap, cnt, j int
	alt             bool
}

// tournamentLayers is relops.topK's layer sequence over n slots keeping K:
// a bitonic sort of the blocks of K in alternating directions, then per
// round one half-cleaner run and a log2 K-layer merge per block pair.
func tournamentLayers(n, K int) []layerShape {
	var ls []layerShape
	for p := 2; p <= K; p <<= 1 {
		for j := p >> 1; j > 0; j >>= 1 {
			ls = append(ls, layerShape{n / p, p, p / 2, j, true})
		}
	}
	for s := K; s < n; s <<= 1 {
		ls = append(ls, layerShape{n / (2 * s), 2 * s, K, s, false})
		for j := K >> 1; j > 0; j >>= 1 {
			ls = append(ls, layerShape{n / (2 * s), 2 * s, K / 2, j, true})
		}
	}
	return ls
}

// mergeState is what a merge leaves — the merged array and planes and, when
// recorded, the swap record and the word planes after the un-merge's
// replay.
type mergeState struct {
	Merged   keyedState
	Record   []uint64
	Unmerged [][]uint64
}

// bitonicPlanes allocates w planes of n slots whose first plane ascends
// then descends over few distinct words (a bitonic key with many ties) and
// whose other planes number the slots, so a merge's output names where
// each entry came from.
func bitonicPlanes(sp *mem.Space, src *prng.Source, n, w int) *KeySchedule {
	ws := AllocKeySchedule(sp, n, w)
	keys := ws.Plane(0).Data()
	for i := range keys {
		keys[i] = src.Uint64n(8)
	}
	up := int(src.Uint64n(uint64(n) + 1))
	slices.Sort(keys[:up])
	slices.Sort(keys[up:])
	slices.Reverse(keys[up:])
	for p := 1; p < w; p++ {
		for i := range n {
			ws.Plane(p).Data()[i] = uint64(i) * uint64(2*p+1)
		}
	}
	return ws
}

// TestMergeBitonicMatchesPerAccess: the element merge DistributeOrdered
// runs, and the recorded plane merge send-receive runs (a key plane and a
// carried one) with its un-merge over 1, 2 and 3 word planes in turn, leave
// the same bytes on every executor.
func TestMergeBitonicMatchesPerAccess(t *testing.T) {
	for _, record := range []bool{false, true} {
		for n := 1; n <= 4096; n <<= 1 {
			w := 1 + n%3 // un-merge widths 1, 2 and 3 (per access) in turn
			label := fmt.Sprintf("mergeBitonic n=%d record=%t", n, record)
			oblivtest.SameOnEveryExecutor(t, label, func(c *forkjoin.Ctx, sp *mem.Space) mergeState {
				if !record {
					a, ks := dupHeavyInput(sp, uint64(n), n, 1)
					mergeBitonic(c, a, ks, n)
					return mergeState{Merged: snapshotKeyed(a, ks)}
				}
				ws := bitonicPlanes(sp, prng.New(uint64(n)), n, 2)
				rec := mem.Alloc[uint64](sp, mergeRecordWords(n))
				for i := range rec.Data() {
					rec.Data()[i] = 0x5555_5555_5555_5555 // stale bits must be overwritten
				}
				mergePlanes(c, ws, n, rec)
				st := mergeState{Merged: keyedState{Planes: planesOf(ws)}, Record: append([]uint64(nil), rec.Data()...)}
				vs := slotPlanes(sp, n, w)
				unmergeBitonic(c, vs, n, rec)
				st.Unmerged = planesOf(vs)
				return st
			})
		}
	}
}

// TestMergeUnmergeRoundTrip: a recorded plane merge sorts a bitonic key
// plane exactly like the element merge over the same keys, and the
// un-merge, replaying the record over planes that number the merged slots,
// carries each slot number back to the position its entry held before the
// merge.
func TestMergeUnmergeRoundTrip(t *testing.T) {
	for n := 1; n <= 4096; n <<= 1 {
		sp := mem.NewSpace()
		ws := bitonicPlanes(sp, prng.New(uint64(n)), n, 2)
		orig := planesOf(ws)

		a := mem.Alloc[Elem](sp, n)
		ks := AllocKeySchedule(sp, n, 1)
		for i, k := range orig[0] {
			a.Data()[i] = Elem{Key: k, Kind: Real}
			ks.Plane(0).Data()[i] = k
		}
		mergeBitonic(forkjoin.Serial(), a, ks, n)

		rec := mem.Alloc[uint64](sp, mergeRecordWords(n))
		mergePlanes(forkjoin.Serial(), ws, n, rec)
		if !slices.Equal(ws.Plane(0).Data(), ks.Plane(0).Data()) {
			t.Fatalf("n=%d: the plane merge ordered the keys differently from the element merge", n)
		}
		if !slices.IsSorted(ws.Plane(0).Data()) {
			t.Fatalf("n=%d: merge output not sorted", n)
		}
		vs := slotPlanes(sp, n, 2)
		unmergeBitonic(forkjoin.Serial(), vs, n, rec)
		if i, ok := checkPlanesReplayed(orig, planesOf(ws), vs); !ok {
			t.Fatalf("n=%d: the un-merge did not carry slot %d home", n, i)
		}
	}
}

// TestUnmergeTraceLockstep: the recorded plane merge and its word
// un-merge, over one plane and over two, touch the same addresses for
// every bitonic input of one size and every carried word.
func TestUnmergeTraceLockstep(t *testing.T) {
	oblivtest.Lockstep(t, "merge+unmerge", 4, 3, 93, func(c *forkjoin.Ctx, sp *mem.Space, shape, content *prng.Source) {
		n := 1 << (1 + shape.Intn(8))
		w := 1 + shape.Intn(2)
		ws := bitonicPlanes(sp, content, n, 2)
		for i := range n {
			ws.Plane(1).Data()[i] = content.Uint64()
		}
		rec := mem.Alloc[uint64](sp, mergeRecordWords(n))
		mergePlanes(c, ws, n, rec)
		vs := AllocKeySchedule(sp, n, w)
		for p := 0; p < w; p++ {
			for r := range n {
				vs.Plane(p).Data()[r] = content.Uint64()
			}
		}
		unmergeBitonic(c, vs, n, rec)
	})
}

func TestScansMatchPerAccess(t *testing.T) {
	type pair struct{ v, first uint64 }
	for _, n := range []int{1, 2, 7, 511, 512, 513, 5000} {
		for _, inclusive := range []bool{true, false} {
			label := fmt.Sprintf("n=%d inclusive=%v", n, inclusive)
			oblivtest.SameOnEveryExecutor(t, "PrefixSumU64 "+label, func(c *forkjoin.Ctx, sp *mem.Space) []uint64 {
				src := prng.New(uint64(n))
				a := mem.Alloc[uint64](sp, n)
				for i := range a.Data() {
					a.Data()[i] = src.Uint64n(9)
				}
				PrefixSumU64(c, sp, a, inclusive)
				return append([]uint64(nil), a.Data()...)
			})
			// A non-commutative combine over a struct carrier.
			oblivtest.SameOnEveryExecutor(t, "ScanOp "+label, func(c *forkjoin.Ctx, sp *mem.Space) []pair {
				src := prng.New(uint64(n) + 1)
				a := mem.Alloc[pair](sp, n)
				for i := range a.Data() {
					a.Data()[i] = pair{v: src.Uint64n(9), first: uint64(i)}
				}
				ScanOp(c, sp, a, func(x, y pair) pair { return pair{v: 3*x.v + y.v, first: x.first} }, pair{first: ^uint64(0)}, inclusive)
				return append([]pair(nil), a.Data()...)
			})
		}
		oblivtest.SameOnEveryExecutor(t, fmt.Sprintf("AggregateSuffixBy n=%d", n), func(c *forkjoin.Ctx, sp *mem.Space) []Elem {
			a, _ := dupHeavyInput(sp, uint64(n)+2, n, 1)
			AggregateSuffixBy(c, sp, a,
				func(x, y Elem) bool { return x.Key == y.Key },
				func(e Elem) uint64 { return e.Val >> 8 },
				func(x, y uint64) uint64 { return x + y },
				func(e Elem, _ int, agg uint64) Elem { e.Val = agg; return e })
			return append([]Elem(nil), a.Data()...)
		})
	}
}

// TestLayerLeafAllocatesNothing: an unmetered layer of at most passGrain
// comparators runs as one leaf with no fork tree, and its block comparator
// stays on the stack — a merge or route of a small PRAM shape pays no heap
// object per layer, nor for its fused tail. Each of the three modes is
// checked, on a Layer and on a whole Merge.
func TestLayerLeafAllocatesNothing(t *testing.T) {
	const n = 2 * passGrain
	c, sp := forkjoin.Serial(), mem.NewSpace()
	a, ks := dupHeavyInput(sp, 5, n, 1)
	ws := AllocKeySchedule(sp, n, 2)
	rec := mem.Alloc[uint64](sp, mergeRecordWords(n))
	kernels := map[string]CexKernel{
		"elements": NewCexKernel(c, a, ks),
		"planes":   NewCexKernelPlanes(c, ws, 1, rec),
		"replay":   NewCexKernelReplay(c, ws, rec),
	}
	for name, k := range kernels {
		if got := testing.AllocsPerRun(20, func() { Layer(c, k, 0, 1, n, passGrain, passGrain, false) }); got != 0 {
			t.Errorf("%s: a %d-comparator layer allocates %v objects, want 0", name, passGrain, got)
		}
		if got := testing.AllocsPerRun(20, func() { Merge(c, k, 0, 1, n, n, false) }); got != 0 {
			t.Errorf("%s: a %d-slot merge allocates %v objects, want 0", name, n, got)
		}
	}
}
