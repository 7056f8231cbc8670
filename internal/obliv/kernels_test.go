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

// TestCexKernelMatchesPerAccess holds the block comparator's raw runs and
// serial leaf layers to the metered per-access spec: compare-exchange by
// cached key in both directions, and replay over word planes.
func TestCexKernelMatchesPerAccess(t *testing.T) {
	for _, w := range []int{1, 2, 3} { // 3: the generic-width fallback
		for _, asc := range []bool{true, false} {
			label := fmt.Sprintf("w=%d asc=%v", w, asc)
			oblivtest.SameOnEveryExecutor(t, "run "+label, func(c *forkjoin.Ctx, sp *mem.Space) keyedState {
				a, ks := dupHeavyInput(sp, 21, 160, w)
				kern := NewCexKernel(c, a, ks)
				kern.run(3, 61, 57, asc, 0)
				kern.run(0, 1, 1, asc, 0)
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
			kern.run(3, 64, 57, true, 9)
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
	kern.run(0, 256, 256, true, 0)
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

// checkReplayed reports the first slot i at which the replayed planes vs do
// not carry home the slot number of the element that came from i: the
// element recorded from orig[i] must sit at slot vs[0][i] of sorted, and
// every other plane must carry the same slot.
func checkReplayed(orig, sorted []Elem, vs *KeySchedule) (int, bool) {
	for i := range orig {
		r := vs.Plane(0).Data()[i]
		if r >= uint64(len(sorted)) || sorted[r] != orig[i] {
			return i, false
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
// the metered per-access spec in all four modes of the block comparator —
// the replay over w word planes (w = 3: the per-access fallback) after the
// record —
// (the closure mode runs per access everywhere, so its row checks the
// driver's leaves and the kernel's rebinding to them),
// over every layer shape the keyed networks use — butterfly layers (j
// divides cnt), half-cleaner runs (cnt < j) over several blocks, alt
// directions, layers long enough that a pool leaf ends mid-run — and over
// the top-k tournament's whole layer sequence. Recording shapes keep each
// leaf's bits in whole words (see Layer); the ragged shapes, whose pool
// leaves also end mid-block, only compare-exchange.
func TestLayerMatchesPerAccess(t *testing.T) {
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
			oblivtest.SameOnEveryExecutor(t, fmt.Sprintf("%s flip=%v closure", sh.name, flip), func(c *forkjoin.Ctx, sp *mem.Space) []Elem {
				a, _ := dupHeavyInput(sp, uint64(n), n, 1)
				kern := NewCexKernelFunc(c, a, func(e Elem) uint64 { return e.Key })
				for _, s := range sh.layers {
					Layer(c, kern, 0, s.nb, s.gap, s.cnt, s.j, s.alt != flip)
				}
				return append([]Elem(nil), a.Data()...)
			})
		}
		for _, w := range []int{1, 2, 3} {
			for _, flip := range []bool{false, true} { // flip: every layer's alt inverted
				label := fmt.Sprintf("%s w=%d flip=%v", sh.name, w, flip)
				oblivtest.SameOnEveryExecutor(t, label+" cex", func(c *forkjoin.Ctx, sp *mem.Space) keyedState {
					a, ks := dupHeavyInput(sp, uint64(n+w), n, w)
					for _, s := range sh.layers {
						Layer(c, NewCexKernel(c, a, ks), 0, s.nb, s.gap, s.cnt, s.j, s.alt != flip)
					}
					return snapshotKeyed(a, ks)
				})
				if !sh.record {
					continue
				}
				oblivtest.SameOnEveryExecutor(t, label+" record", func(c *forkjoin.Ctx, sp *mem.Space) layerState {
					a, ks := dupHeavyInput(sp, uint64(n+w), n, w)
					orig := append([]Elem(nil), a.Data()...)
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
						Layer(c, NewCexKernelRecord(c, a, ks, rec), qs[l], s.nb, s.gap, s.cnt, s.j, s.alt != flip)
					}
					st := layerState{Keyed: snapshotKeyed(a, ks), Record: append([]uint64(nil), rec.Data()...)}
					vs := slotPlanes(sp, n, w)
					for l := len(sh.layers) - 1; l >= 0; l-- {
						s := sh.layers[l]
						Layer(c, NewCexKernelReplay(c, vs, rec), qs[l], s.nb, s.gap, s.cnt, s.j, s.alt != flip)
					}
					st.Replayed = planesOf(vs)
					if i, ok := checkReplayed(orig, a.Data(), vs); !ok {
						t.Errorf("%s: the replay did not carry slot %d home", label, i) // Errorf: may run on a pool worker
					}
					return st
				})
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

func TestMergeBitonicMatchesPerAccess(t *testing.T) {
	for _, record := range []bool{false, true} {
		for n := 1; n <= 4096; n <<= 1 {
			w := 1 + n%3 // un-merge widths 1, 2 and 3 (per access) in turn
			label := fmt.Sprintf("mergeBitonic n=%d record=%t", n, record)
			oblivtest.SameOnEveryExecutor(t, label, func(c *forkjoin.Ctx, sp *mem.Space) mergeState {
				a, ks := dupHeavyInput(sp, uint64(n), n, 1)
				if !record {
					mergeBitonic(c, a, ks, n, nil)
					return mergeState{Merged: snapshotKeyed(a, ks)}
				}
				rec := mem.Alloc[uint64](sp, mergeRecordWords(n))
				for i := range rec.Data() {
					rec.Data()[i] = 0x5555_5555_5555_5555 // stale bits must be overwritten
				}
				mergeBitonic(c, a, ks, n, rec)
				st := mergeState{Merged: snapshotKeyed(a, ks), Record: append([]uint64(nil), rec.Data()...)}
				vs := slotPlanes(sp, n, w)
				unmergeBitonic(c, vs, n, rec)
				st.Unmerged = planesOf(vs)
				return st
			})
		}
	}
}

// TestMergeUnmergeRoundTrip: a recorded merge sorts a bitonic input exactly
// like the unrecorded one, and the un-merge, replaying the record over
// planes that number the merged slots, carries each slot number back to
// the position its element held before the merge.
func TestMergeUnmergeRoundTrip(t *testing.T) {
	for n := 1; n <= 4096; n <<= 1 {
		sp := mem.NewSpace()
		src := prng.New(uint64(n))
		a := mem.Alloc[Elem](sp, n)
		ks := AllocKeySchedule(sp, n, 1)
		// Ascending then descending keys with many ties, every field set.
		up := int(src.Uint64n(uint64(n) + 1))
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = src.Uint64n(8)
		}
		slices.Sort(keys[:up])
		slices.Sort(keys[up:])
		slices.Reverse(keys[up:])
		for i := range n {
			a.Data()[i] = Elem{Key: keys[i], Val: src.Uint64(), Aux: uint64(i), Lbl: src.Uint64(), Kind: Real}
			ks.Plane(0).Data()[i] = keys[i]
		}
		orig := append([]Elem(nil), a.Data()...)

		plainA := mem.FromSlice(sp, orig)
		plainKs := AllocKeySchedule(sp, n, 1)
		copy(plainKs.Plane(0).Data(), keys)
		mergeBitonic(forkjoin.Serial(), plainA, plainKs, n, nil)

		rec := mem.Alloc[uint64](sp, mergeRecordWords(n))
		mergeBitonic(forkjoin.Serial(), a, ks, n, rec)
		if !slices.Equal(a.Data(), plainA.Data()) {
			t.Fatalf("n=%d: the recorded merge ordered differently from the plain one", n)
		}
		for i := 1; i < n; i++ {
			if ks.Plane(0).Data()[i-1] > ks.Plane(0).Data()[i] {
				t.Fatalf("n=%d: merge output not sorted at %d", n, i)
			}
		}
		vs := slotPlanes(sp, n, 2)
		unmergeBitonic(forkjoin.Serial(), vs, n, rec)
		if i, ok := checkReplayed(orig, a.Data(), vs); !ok {
			t.Fatalf("n=%d: the un-merge did not carry slot %d home", n, i)
		}
	}
}

// TestUnmergeTraceLockstep: the recorded merge and its word un-merge, over
// one plane and over two, touch the same addresses for every bitonic input
// of one size and every carried word.
func TestUnmergeTraceLockstep(t *testing.T) {
	oblivtest.Lockstep(t, "merge+unmerge", 4, 3, 93, func(c *forkjoin.Ctx, sp *mem.Space, shape, content *prng.Source) {
		n := 1 << (1 + shape.Intn(8))
		w := 1 + shape.Intn(2)
		a, ks := dupHeavyInput(sp, content.Uint64(), n, 1)
		keys := ks.Plane(0).Data()
		up := int(content.Uint64n(uint64(n) + 1))
		slices.Sort(keys[:up])
		slices.Sort(keys[up:])
		slices.Reverse(keys[up:])
		rec := mem.Alloc[uint64](sp, mergeRecordWords(n))
		mergeBitonic(c, a, ks, n, rec)
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
