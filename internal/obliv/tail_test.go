package obliv

import (
	"fmt"
	"slices"
	"testing"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/prng"
)

// staleRecord allocates a record of words words filled with a pattern the
// kernels must overwrite where they write and keep where they do not.
func staleRecord(sp *mem.Space, words int) *mem.Array[uint64] {
	rec := mem.Alloc[uint64](sp, words)
	for i := range rec.Data() {
		rec.Data()[i] = 0x5555_5555_5555_5555
	}
	return rec
}

// TestTailMatchesLayers: the fused tail — the layers at strides 4, 2 and 1
// of a merge stage as one pass over 8-slot blocks — leaves the planes and
// the record exactly as the three serial Layer calls it replaces, bit for
// bit and at the same addresses, over one or two key planes, with or
// without a carried plane and a record, in both directions, for one
// direction (period 0), a flip every block (period 8) and the whole block
// (period n), at an offset lo != 0 and bits from a q that is not
// word-aligned. The replay tail equals the three replay Layers it
// replaces, over one and two planes. Both run once per raw-kernel path
// the machine has (forEachPath).
func TestTailMatchesLayers(t *testing.T) { forEachPath(t, tailMatchesLayers) }

func tailMatchesLayers(t *testing.T) {
	const lo, q = 5, 20 // q on a 4-bit boundary, not a word boundary
	c := forkjoin.Serial()
	for _, n := range []int{8, 64, 1024} {
		h := n >> 1
		words := (q + 3*h + 63) >> 6
		for _, k := range []int{1, 2} {
			for carried := 0; carried <= 1; carried++ {
				for _, record := range []bool{false, true} {
					for _, asc := range []bool{true, false} {
						for _, period := range []int{0, 8, n} {
							label := fmt.Sprintf("n=%d k=%d carried=%d record=%v asc=%v period=%d", n, k, carried, record, asc, period)
							sp := mem.NewSpace()
							want := dupHeavyPlanes(sp, uint64(n+k+carried), lo+n, k+carried)
							got := AllocKeySchedule(sp, lo+n, k+carried)
							for p := range k + carried {
								copy(got.Plane(p).Data(), want.Plane(p).Data())
							}
							var recWant, recGot *mem.Array[uint64]
							if record {
								recWant, recGot = staleRecord(sp, words), staleRecord(sp, words)
							}
							kw := NewCexKernelPlanes(c, want, k, recWant)
							for l, j := 0, 4; j > 0; l, j = l+1, j>>1 {
								kw.Layer(lo, n, j, period, asc, q+l*h)
							}
							kg := NewCexKernelPlanes(c, got, k, recGot)
							if !kg.fuses(false, 8, period, q) || kg.fuses(true, 8, period, q) {
								t.Fatalf("%s: the raw plane kernel must fuse a merge and only a merge", label)
							}
							kg.tail(lo, 0, n, period, asc, q, h)
							if !slices.EqualFunc(planesOf(got), planesOf(want), slices.Equal) {
								t.Fatalf("%s: the tail's planes differ from three Layers'", label)
							}
							if record && !slices.Equal(recGot.Data(), recWant.Data()) {
								t.Fatalf("%s: the tail's record differs from three Layers'", label)
							}
						}
					}
				}
			}
		}
		for _, w := range []int{1, 2} {
			sp := mem.NewSpace()
			src := prng.New(uint64(n + w))
			rec := mem.Alloc[uint64](sp, words)
			for i := range rec.Data() {
				rec.Data()[i] = src.Uint64()
			}
			want, got := slotPlanes(sp, lo+n, w), slotPlanes(sp, lo+n, w)
			kw := NewCexKernelReplay(c, want, rec)
			for l, j := 2, 1; j <= 4; l, j = l-1, j<<1 {
				kw.Layer(lo, n, j, 0, true, q+l*h)
			}
			kg := NewCexKernelReplay(c, got, rec)
			if !kg.fuses(true, 8, 0, q) || kg.fuses(false, 8, 0, q) {
				t.Fatalf("n=%d w=%d: the raw replay kernel must fuse an un-merge and only an un-merge", n, w)
			}
			kg.tail(lo, 0, n, 0, true, q, h)
			if !slices.EqualFunc(planesOf(got), planesOf(want), slices.Equal) {
				t.Fatalf("n=%d w=%d: the replay tail's planes differ from three replay Layers'", n, w)
			}
		}
	}
}

// TestKernelMergeMatchesLayers: the serial leaf loop's Merge and Unmerge —
// the fused tail after the layers above stride 4, or the layers below
// stride 8 replayed — equal the Layer-by-Layer loops they stand for, in a
// sort layer group whose direction flips every p and in a whole-block
// merge, from a q that is not word-aligned; a q off a 4-bit boundary and
// p < 8 take the unfused loop. It runs on every path (forEachPath).
func TestKernelMergeMatchesLayers(t *testing.T) { forEachPath(t, kernelMergeMatchesLayers) }

func kernelMergeMatchesLayers(t *testing.T) {
	const lo, n = 3, 256
	c := forkjoin.Serial()
	for _, q := range []int{20, 6} {
		for _, p := range []int{2, 4, 8, 32, n} {
			period := p
			if p == n {
				period = 0
			}
			label := fmt.Sprintf("p=%d q=%d", p, q)
			sp := mem.NewSpace()
			layers := Log2(p)
			words := (q + layers*n/2 + 63) >> 6
			want, got := dupHeavyPlanes(sp, uint64(p), lo+n, 2), AllocKeySchedule(sp, lo+n, 2)
			for i := range 2 {
				copy(got.Plane(i).Data(), want.Plane(i).Data())
			}
			recWant, recGot := staleRecord(sp, words), staleRecord(sp, words)
			kw := NewCexKernelPlanes(c, want, 1, recWant)
			for l, j := 0, p>>1; j > 0; l, j = l+1, j>>1 {
				kw.Layer(lo, n, j, period, false, q+l*n/2)
			}
			kg := NewCexKernelPlanes(c, got, 1, recGot)
			kg.Merge(lo, n, p, period, false, q)
			if !slices.EqualFunc(planesOf(got), planesOf(want), slices.Equal) || !slices.Equal(recGot.Data(), recWant.Data()) {
				t.Fatalf("%s: Merge differs from its Layers", label)
			}

			vw, vg := slotPlanes(sp, lo+n, 1), slotPlanes(sp, lo+n, 1)
			rw := NewCexKernelReplay(c, vw, recWant)
			for l, j := layers-1, 1; j < p; l, j = l-1, j<<1 {
				rw.Layer(lo, n, j, 0, true, q+l*n/2)
			}
			rg := NewCexKernelReplay(c, vg, recWant)
			rg.Unmerge(lo, n, p, q)
			if !slices.Equal(vg.Plane(0).Data(), vw.Plane(0).Data()) {
				t.Fatalf("%s: Unmerge differs from its replay Layers", label)
			}
		}
	}
}

// TestRouterTailForked: at 2^15 slots the Router's merge and un-merge fork
// their tail over 8-slot blocks, each leaf on whole record words; on a
// 2-worker pool they leave the planes and the record of the serial
// Layer-by-Layer merge and replay.
func TestRouterTailForked(t *testing.T) {
	const n = 1 << 15
	h := n >> 1
	sp := mem.NewSpace()
	want := bitonicPlanes(sp, prng.New(15), n, 2)
	got := AllocKeySchedule(sp, n, 2)
	for p := range 2 {
		copy(got.Plane(p).Data(), want.Plane(p).Data())
	}
	recWant := staleRecord(sp, mergeRecordWords(n))
	recGot := staleRecord(sp, mergeRecordWords(n))
	c := forkjoin.Serial()
	kw := NewCexKernelPlanes(c, want, 1, recWant)
	for l, j := 0, h; j > 0; l, j = l+1, j>>1 {
		Layer(c, kw, l*h, 1, n, h, j, false)
	}
	vw, vg := slotPlanes(sp, n, 2), slotPlanes(sp, n, 2)
	rw := NewCexKernelReplay(c, vw, recWant)
	for l, j := Log2(n)-1, 1; j < n; l, j = l-1, j<<1 {
		Layer(c, rw, l*h, 1, n, h, j, false)
	}

	pool := forkjoin.NewPool(2)
	defer pool.Close()
	pool.Run(func(c *forkjoin.Ctx) {
		mergePlanes(c, got, n, recGot)
		unmergeBitonic(c, vg, n, recGot)
	})
	if !slices.EqualFunc(planesOf(got), planesOf(want), slices.Equal) {
		t.Fatal("the forked merge's planes differ from the serial Layers'")
	}
	if !slices.Equal(recGot.Data(), recWant.Data()) {
		t.Fatal("the forked merge's record differs from the serial Layers'")
	}
	if !slices.EqualFunc(planesOf(vg), planesOf(vw), slices.Equal) {
		t.Fatal("the forked un-merge's planes differ from the serial replay Layers'")
	}
}
