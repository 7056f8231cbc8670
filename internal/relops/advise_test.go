package relops

import (
	"errors"
	"testing"

	"oblivmc/internal/bitonic"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/obliv/oblivtest"
	"oblivmc/internal/prng"
)

// These tests pin the capacity a CapAuto join adopts — the bound the
// JoinCapAuto mode "advises": the nested-loop reference's pair count.

// runAuto runs JoinAll under the CapAuto sentinel over fresh loads of the
// two record sets, with the suite's sorter sized for the resolved capacity.
func runAuto(t testing.TB, lrecs, rrecs []Record, w, resolved int) (Rel, int, error) {
	t.Helper()
	sp := mem.NewSpace()
	left, right := mustLoadW(t, sp, lrecs, w), mustLoadW(t, sp, rrecs, w)
	wLen := obliv.NextPow2(obliv.NextPow2(left.Len()+right.Len()) + obliv.NextPow2(resolved))
	return JoinAll(testCtx(), sp, NewArena(), left, right, CapAuto, testSorter(wLen))
}

// checkJoinCapAdvise is the auto capacity's differential property: the
// match count a CapAuto join reports must equal the nested-loop reference's
// exact pair count Σ|L_g|·|R_g|, the join must never overflow, it must
// deliver every match, and its output must be sized to exactly that bound
// (floored to the legal minimum of 1).
func checkJoinCapAdvise(t testing.TB, seed uint64, nl, nr, w, dist int) {
	t.Helper()
	src := prng.New(seed)
	lrecs := genRecords(src, nl, w, dist)
	rrecs := genRecords(src, nr, w, dist)
	want := refJoinAll(lrecs, rrecs, w)

	resolved := max(1, len(want))
	out, m, err := runAuto(t, lrecs, rrecs, w, resolved)
	if err != nil {
		t.Fatalf("JoinAll(CapAuto, nl=%d nr=%d w=%d dist=%d) overflowed or failed: %v", nl, nr, w, dist, err)
	}
	if m != len(want) {
		t.Fatalf("JoinAll(CapAuto, nl=%d nr=%d w=%d dist=%d) reports %d matches, reference bound %d", nl, nr, w, dist, m, len(want))
	}
	if out.Len() != obliv.NextPow2(resolved) {
		t.Fatalf("JoinAll(CapAuto) output holds %d slots, want NextPow2(%d)", out.Len(), resolved)
	}
	checkJoined(t, UnloadJoined(out), want, "JoinAll(CapAuto)")
}

func TestJoinCapAdvise(t *testing.T) {
	// Hand-checked group structure: key 1 → 2·2 pairs, key 2 → 1·3, key 3
	// left-only, key 4 right-only.
	lrecs := []Record{{Key: 1, Val: 10}, {Key: 1, Val: 11}, {Key: 2, Val: 12}, {Key: 3, Val: 13}}
	rrecs := []Record{{Key: 1, Val: 20}, {Key: 1, Val: 21}, {Key: 2, Val: 22}, {Key: 2, Val: 23}, {Key: 2, Val: 24}, {Key: 4, Val: 25}}
	out, m, err := runAuto(t, lrecs, rrecs, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if m != 7 || len(UnloadJoined(out)) != 7 || out.Len() != 8 {
		t.Fatalf("%d matches, %d rows in %d slots; want 2*2 + 1*3 = 7 in 8", m, len(UnloadJoined(out)), out.Len())
	}

	// Disjoint inputs: a bound of zero is floored to one (empty) slot
	// instead of failing capacity validation.
	out, m, err = runAuto(t, []Record{{Key: 9, Val: 1}}, rrecs, 1, 1)
	if err != nil || m != 0 || len(UnloadJoined(out)) != 0 || out.Len() != 1 {
		t.Fatalf("disjoint CapAuto: %d matches, %d rows, %d slots, err %v — want empty success in 1 slot",
			m, len(UnloadJoined(out)), out.Len(), err)
	}

	// A bound above MaxRows has no legal capacity. (Reaching it end to end
	// needs > 2^40 matches, so the resolution step is exercised directly.)
	if _, err := autoCap(MaxRows + 1); !errors.Is(err, ErrCapTooLarge) {
		t.Fatalf("autoCap(MaxRows+1): err = %v, want ErrCapTooLarge", err)
	}
	if got, err := autoCap(MaxRows); err != nil || got != MaxRows {
		t.Fatalf("autoCap(MaxRows) = %d, %v; want the bound itself", got, err)
	}
}

func TestJoinCapAdviseProperty(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		for _, dist := range []int{distSpread, distDupHeavy, distAllEqual} {
			for w := 1; w <= MaxKeyCols; w++ {
				checkJoinCapAdvise(t, seed+uint64(97*dist), 1+int(seed)%13, 1+int(3*seed)%17, w, dist)
			}
		}
	}
}

// TestJoinCapAdviseObliviousTrace: up to the point the sentinel is resolved
// (the interleave, the key sort and the two segmented scans — joinCount) the
// view is a function of the relation shapes alone, whatever the contents
// and match counts; from there on the adopted bound is public shape, so
// same-shape inputs with equal match counts yield equal views of the whole
// CapAuto join — the very view of an explicit join at that capacity.
func TestJoinCapAdviseObliviousTrace(t *testing.T) {
	srt := bitonic.CacheAgnostic{}
	check := func(name string, inputs [][]Record, w int) {
		var bodies []oblivtest.Body
		for _, lrecs := range inputs {
			for _, rrecs := range inputs {
				bodies = append(bodies, func(c *forkjoin.Ctx, sp *mem.Space) {
					joinCount(c, sp, NewArena(), mustLoadW(t, sp, lrecs, w), mustLoadW(t, sp, rrecs, w), srt)
				})
			}
		}
		oblivtest.FingerprintEqual(t, name, bodies...)
	}
	check("joinCount", traceInputs(32), 1)
	check("WideJoinCount", wideTraceInputs(32), 2)

	// Three same-shape instances with exactly n matches each: distinct keys
	// on both sides; n/2 left pairs each matched by one right, the other
	// rights unmatched; one left group of n/2 matched by two rights.
	const n = 16
	var pairs [3][2][]Record
	for i := 0; i < n; i++ {
		u := uint64(i)
		pairs[0][0] = append(pairs[0][0], Record{Key: u, Val: u})
		pairs[0][1] = append(pairs[0][1], Record{Key: n - 1 - u, Val: 7 * u})
		pairs[1][0] = append(pairs[1][0], Record{Key: u / 2 << 33, Val: u})
		pairs[1][1] = append(pairs[1][1], Record{Key: u<<33 | u/(n/2), Val: 1 << 40})
		pairs[2][0] = append(pairs[2][0], Record{Key: 5 + u/(n/2)*(10+u), Val: u})
		pairs[2][1] = append(pairs[2][1], Record{Key: 5 + u/2*100, Val: u})
	}
	join := func(lrecs, rrecs []Record, maxOut int) oblivtest.Body {
		return func(c *forkjoin.Ctx, sp *mem.Space) {
			_, m, err := JoinAll(c, sp, NewArena(), mustLoad(t, sp, lrecs), mustLoad(t, sp, rrecs), maxOut, srt)
			if err != nil || m != n {
				t.Fatalf("%d matches, err %v; the instances are built to match exactly %d times", m, err, n)
			}
		}
	}
	oblivtest.FingerprintEqual(t, "JoinAll(CapAuto) at equal match counts",
		join(pairs[0][0], pairs[0][1], CapAuto), join(pairs[1][0], pairs[1][1], CapAuto),
		join(pairs[2][0], pairs[2][1], CapAuto), join(pairs[0][0], pairs[0][1], n))
}
