package obliv

import (
	"testing"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv/oblivtest"
	"oblivmc/internal/prng"
)

// distSpec is one source of a DistributeOrdered test case: a value and the
// width of its destination span (0 = non-participant).
type distSpec struct {
	val  uint64
	span uint64
}

// runDistributeOrdered loads specs — destinations at their running
// prefix-sum offsets (non-decreasing, as the contract requires),
// participation riding the span count stashed in Lbl — runs
// DistributeOrdered into outLen slots, and returns the applied slot
// elements indexed by slot plus the passed-through non-participants.
func runDistributeOrdered(c *forkjoin.Ctx, sp *mem.Space, specs []distSpec, outLen int) (slots []Elem, passed []Elem) {
	n := len(specs)
	sources := mem.Alloc[Elem](sp, n)
	dests := mem.Alloc[uint64](sp, n)
	off := uint64(0)
	for i, s := range specs {
		sources.Data()[i] = Elem{Key: uint64(i), Val: s.val, Lbl: s.span, Kind: Real}
		dests.Data()[i] = off
		off += s.span
	}
	w := DistributeOrdered(c, sp, sources, dests, outLen,
		func(e Elem) bool { return e.Lbl > 0 },
		func(slot, d uint64, src Elem, ok bool) Elem {
			if !ok {
				return Elem{Key: slot, Val: InfKey, Kind: Real, Tag: 2}
			}
			return Elem{Key: slot, Val: src.Val, Aux: d, Lbl: src.Key, Kind: Real, Tag: 2}
		})
	slots = make([]Elem, outLen)
	for _, e := range w.Data() {
		if e.Kind != Real {
			continue
		}
		if e.Tag == 2 {
			slots[e.Key] = e
		} else {
			passed = append(passed, e)
		}
	}
	return slots, passed
}

func TestDistributeSpans(t *testing.T) {
	specs := []distSpec{
		{val: 10, span: 3}, // slots 0-2
		{val: 20, span: 0}, // non-participant, passed through
		{val: 30, span: 1}, // slot 3
		{val: 40, span: 2}, // slots 4-5
		{val: 50, span: 0}, // non-participant
	}
	const outLen = 9 // slots 6-8 beyond the last span: governed but out of span
	sp := mem.NewSpace()
	c := forkjoin.Serial()
	slots, passed := runDistributeOrdered(c, sp, specs, outLen)

	wantVal := []uint64{10, 10, 10, 30, 40, 40, 40, 40, 40}
	wantD := []uint64{0, 0, 0, 3, 4, 4, 4, 4, 4}
	for s := 0; s < outLen; s++ {
		e := slots[s]
		if e.Kind != Real {
			t.Fatalf("slot %d missing from the result", s)
		}
		if e.Val != wantVal[s] || e.Aux != wantD[s] {
			t.Fatalf("slot %d = (val %d, d %d), want (val %d, d %d)", s, e.Val, e.Aux, wantVal[s], wantD[s])
		}
	}
	if len(passed) != 2 || passed[0].Val+passed[1].Val != 70 {
		t.Fatalf("non-participants not passed through: %v", passed)
	}
}

// TestDistributeRandomReference checks DistributeOrdered against a plain-Go
// reference on random prefix-sum destinations, including spans running past
// outLen and participants demoted beyond it: slot s is governed by the
// participant with the largest offset <= s (or by nobody: the ok=false
// marker), and exactly the non-participants pass through, unchanged.
func TestDistributeRandomReference(t *testing.T) {
	src := prng.New(771)
	for trial := 0; trial < 40; trial++ {
		n := 1 + src.Intn(40)
		specs := make([]distSpec, n)
		total := uint64(0)
		for i := range specs {
			specs[i] = distSpec{val: src.Uint64n(1 << 30), span: src.Uint64n(4)}
			total += specs[i].span
		}
		outLen := 1 + src.Intn(int(total)+8)
		slots, passed := runDistributeOrdered(forkjoin.Serial(), mem.NewSpace(), specs, outLen)

		wantVal := make([]uint64, outLen)
		wantD := make([]uint64, outLen)
		for s := range wantVal {
			wantVal[s] = InfKey
		}
		wantPassed := map[uint64]uint64{} // source index → value
		off := uint64(0)
		for i, spec := range specs {
			if spec.span == 0 || off >= uint64(outLen) {
				wantPassed[uint64(i)] = spec.val
			} else {
				for s := off; s < uint64(outLen); s++ {
					wantVal[s], wantD[s] = spec.val, off
				}
			}
			off += spec.span
		}

		for s := 0; s < outLen; s++ {
			if e := slots[s]; e.Kind != Real || e.Val != wantVal[s] || e.Aux != wantD[s] {
				t.Fatalf("trial %d: slot %d = %+v, want (val %d, d %d) (specs %v, outLen %d)",
					trial, s, e, wantVal[s], wantD[s], specs, outLen)
			}
		}
		if len(passed) != len(wantPassed) {
			t.Fatalf("trial %d: %d passed-through sources, want %d (specs %v, outLen %d)",
				trial, len(passed), len(wantPassed), specs, outLen)
		}
		for _, e := range passed {
			if v, ok := wantPassed[e.Key]; !ok || v != e.Val {
				t.Fatalf("trial %d: passed-through %+v is not an unchanged non-participant (specs %v, outLen %d)",
					trial, e, specs, outLen)
			}
			delete(wantPassed, e.Key)
		}
	}
}

func TestDistributeOrderedNoParticipants(t *testing.T) {
	sp := mem.NewSpace()
	slots, passed := runDistributeOrdered(forkjoin.Serial(), sp, []distSpec{{val: 7, span: 0}}, 4)
	for s, e := range slots {
		if e.Kind != Real || e.Val != InfKey {
			t.Fatalf("ungoverned slot %d = %v, want the ok=false marker", s, e)
		}
	}
	if len(passed) != 1 || passed[0].Val != 7 {
		t.Fatalf("non-participant not passed through: %v", passed)
	}
}

// TestDistributeOrderedObliviousTrace: the bitonic merge's comparator
// sequence is a function of the array length alone, so same-shape runs
// with different spans and values must have identical views, and a
// different outLen must not.
func TestDistributeOrderedObliviousTrace(t *testing.T) {
	mk := func(specs []distSpec, outLen int) oblivtest.Body {
		return func(c *forkjoin.Ctx, sp *mem.Space) {
			runDistributeOrdered(c, sp, specs, outLen)
		}
	}
	a := []distSpec{{1, 9}, {2, 0}, {3, 0}, {4, 0}}
	b := []distSpec{{5, 1}, {6, 1}, {7, 1}, {8, 1}}
	d := []distSpec{{0, 0}, {0, 0}, {0, 0}, {0, 0}}
	oblivtest.FingerprintEqual(t, "DistributeOrdered", mk(a, 9), mk(b, 9), mk(d, 9))
	oblivtest.Different(t, "DistributeOrdered outLen", mk(a, 9), mk(a, 16))
}
