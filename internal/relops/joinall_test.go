package relops

import (
	"errors"
	"strings"
	"testing"

	"oblivmc/internal/bitonic"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/prng"
)

// TestJoinAllBasic pins a hand-checked many-to-many instance: duplicated
// keys on both sides, a key missing from the left, a key missing from the
// right.
func TestJoinAllBasic(t *testing.T) {
	lrecs := []Record{
		{Key: 1, Val: 10}, // two lefts for key 1
		{Key: 2, Val: 20},
		{Key: 1, Val: 11},
		{Key: 9, Val: 90}, // no right partner
	}
	rrecs := []Record{
		{Key: 2, Val: 200},
		{Key: 1, Val: 100}, // fans out to both lefts
		{Key: 7, Val: 700}, // no left partner
		{Key: 1, Val: 101},
	}
	want := []Joined{
		{Key: 2, LeftVal: 20, RightVal: 200},
		{Key: 1, LeftVal: 10, RightVal: 100},
		{Key: 1, LeftVal: 11, RightVal: 100},
		{Key: 1, LeftVal: 10, RightVal: 101},
		{Key: 1, LeftVal: 11, RightVal: 101},
	}
	sp := mem.NewSpace()
	left, right := mustLoad(t, sp, lrecs), mustLoad(t, sp, rrecs)
	out, count, err := JoinAll(testCtx(), sp, NewArena(), left, right, 8, obliv.SelectionNetwork{})
	if err != nil {
		t.Fatal(err)
	}
	if count != len(want) {
		t.Fatalf("count = %d, want %d", count, len(want))
	}
	checkJoined(t, UnloadJoined(out), want, "JoinAll basic")
	if got := out.Len(); got != 8 {
		t.Fatalf("output relation length %d, want the public NextPow2(maxOut) = 8", got)
	}
}

// TestJoinAllOverflowBoundary is the exact-boundary overflow contract:
// with M real matches the operator succeeds at maxOut = M and fails with
// ErrJoinOverflow at maxOut = M-1 (i.e. the error fires at exactly
// maxOut+1 matches), still reporting the true count either way.
func TestJoinAllOverflowBoundary(t *testing.T) {
	// All-equal keys: M = nl * nr exactly.
	const nl, nr = 3, 5
	const m = nl * nr
	lrecs := make([]Record, nl)
	rrecs := make([]Record, nr)
	for i := range lrecs {
		lrecs[i] = Record{Key: 42, Val: uint64(i)}
	}
	for j := range rrecs {
		rrecs[j] = Record{Key: 42, Val: uint64(100 + j)}
	}
	run := func(maxOut int) (int, error) {
		sp := mem.NewSpace()
		left, right := mustLoad(t, sp, lrecs), mustLoad(t, sp, rrecs)
		_, count, err := JoinAll(testCtx(), sp, NewArena(), left, right, maxOut, obliv.SelectionNetwork{})
		return count, err
	}

	if count, err := run(m); err != nil || count != m {
		t.Fatalf("maxOut = M = %d: count %d err %v, want clean success", m, count, err)
	}
	count, err := run(m - 1)
	if !errors.Is(err, ErrJoinOverflow) {
		t.Fatalf("maxOut = M-1: err = %v, want ErrJoinOverflow", err)
	}
	if count != m {
		t.Fatalf("overflow count = %d, want the true match count %d", count, m)
	}
	// The wrapped message carries the concrete numbers for the retry.
	if !strings.Contains(err.Error(), "15 matches > maxOut 14") {
		t.Fatalf("overflow error %q does not carry the match count and capacity", err)
	}

	// Capacity bounds are typed shape errors like the rest of CheckShape's.
	if _, err := run(0); !errors.Is(err, ErrBadCapacity) {
		t.Fatalf("maxOut = 0: err = %v, want ErrBadCapacity", err)
	}
	if err := CheckCapacity(MaxRows + 1); !errors.Is(err, ErrBadCapacity) {
		t.Fatalf("maxOut = MaxRows+1: err = %v, want ErrBadCapacity", err)
	}
	if err := CheckCapacity(MaxRows); err != nil {
		t.Fatalf("maxOut = MaxRows rejected: %v", err)
	}
}

// TestJoinAllDeferredMatchesFull: the deferred variant must produce the
// same match multiset as the full operator — as plain records, since the
// deferred path does not deliver left values — under both widths.
func TestJoinAllDeferredMatchesFull(t *testing.T) {
	src := prng.New(717)
	for _, w := range []int{1, 2} {
		for _, dist := range []int{distSpread, distDupHeavy, distAllEqual} {
			lrecs := genRecords(src, 9, w, dist)
			rrecs := genRecords(src, 14, w, dist)
			want := refJoinAll(lrecs, rrecs, w)
			maxOut := len(want) + 3

			sp := mem.NewSpace()
			srt := bitonic.CacheAgnostic{}
			def, count, err := JoinAllDeferred(testCtx(), sp, NewArena(),
				mustLoadW(t, sp, lrecs, w), mustLoadW(t, sp, rrecs, w), maxOut, srt)
			if err != nil {
				t.Fatal(err)
			}
			if count != len(want) {
				t.Fatalf("w=%d dist=%d: deferred count = %d, want %d", w, dist, count, len(want))
			}
			// Scattered output: compare as a multiset of plain records.
			got := Unload(def)
			if len(got) != len(want) {
				t.Fatalf("w=%d dist=%d: %d deferred records, want %d", w, dist, len(got), len(want))
			}
			counts := map[Record]int{}
			for _, j := range want {
				counts[Record{Key: j.Key, Key2: j.Key2, Val: j.RightVal}]++
			}
			for _, r := range got {
				if counts[r] == 0 {
					t.Fatalf("w=%d dist=%d: unexpected deferred record %v", w, dist, r)
				}
				counts[r]--
			}
		}
	}
}

// TestJoinAllErrorMessagesReflectConstants extends the parameterized-limit
// guard to the join errors: the capacity and overflow messages must derive
// from the active MaxRows constant, never from baked-in copies.
func TestJoinAllErrorMessagesReflectConstants(t *testing.T) {
	for _, err := range []error{ErrBadCapacity, ErrJoinOverflow} {
		if !strings.Contains(err.Error(), "2^40") {
			t.Errorf("error %q does not mention the active row bound 2^40", err)
		}
		for _, stale := range []string{"2^40-1", "2^20", "2^62"} {
			if strings.Contains(err.Error(), stale) {
				t.Errorf("error %q bakes in the stale bound %q", err, stale)
			}
		}
	}
}

// TestJoinAllParallel smoke-tests the operator under the real work-stealing
// pool so the race detector sees the forked passes, at a size that uses the
// cache-agnostic bitonic pipeline.
func TestJoinAllParallel(t *testing.T) {
	src := prng.New(515)
	lrecs := genRecords(src, 150, 2, distDupHeavy)
	rrecs := genRecords(src, 300, 2, distDupHeavy)
	want := refJoinAll(lrecs, rrecs, 2)
	forkjoin.RunParallel(4, func(c *forkjoin.Ctx) {
		sp := mem.NewSpace()
		left, right := mustLoadW(t, sp, lrecs, 2), mustLoadW(t, sp, rrecs, 2)
		out, count, err := JoinAll(c, sp, NewArena(), left, right, len(want)+5, bitonic.CacheAgnostic{})
		if err != nil {
			t.Error(err)
			return
		}
		if count != len(want) {
			t.Errorf("parallel JoinAll count = %d, want %d", count, len(want))
			return
		}
		got := UnloadJoined(out)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("parallel JoinAll record %d = %v, want %v", i, got[i], want[i])
				return
			}
		}
	})
}
