package oblivmc

// Tests of the public primary-key Join, one send-receive: a map reference
// over random and boundary-key tables on both backends and the parallel
// executor, the trace, and a native fuzz target over the same checker.

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"oblivmc/internal/prng"
	"oblivmc/internal/relops"
)

// joinConfigs are the backends and executors every join case runs under.
var joinConfigs = []Config{
	{Mode: ModeSerial, SortBackend: SortBitonic},
	{Mode: ModeSerial, SortBackend: SortShuffle, DeterministicShuffle: true, Seed: 5},
	{Mode: ModeParallel, Workers: 2},
}

// refJoin is the map reference of Join: for each right row in order, the
// value of the left row sharing its key, if any (left keys are distinct).
func refJoin(left, right []Row) []JoinedRow {
	lval := make(map[uint64]uint64, len(left))
	for _, r := range left {
		lval[r.Key] = r.Val
	}
	var out []JoinedRow
	for _, r := range right {
		if v, ok := lval[r.Key]; ok {
			out = append(out, JoinedRow{Key: r.Key, LeftVal: v, RightVal: r.Val})
		}
	}
	return out
}

// checkJoin runs Join under cfg and requires exactly refJoin's rows.
func checkJoin(t testing.TB, cfg Config, left, right []Row, label string) {
	t.Helper()
	lt, err := NewTable(left)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewTable(right)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Join(cfg, lt, rt)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if want := refJoin(left, right); !slices.Equal(got, want) {
		t.Fatalf("%s: got %v, want %v", label, got, want)
	}
}

// joinRows draws a left table of nl distinct keys from [0, max(nl, spread))
// and a right table of nr keys from [0, spread). An odd multiplier — a
// bijection on uint64, so distinct keys stay distinct — scatters both over
// the full key range.
func joinRows(src *prng.Source, nl, nr, spread int) (left, right []Row) {
	const scatter = 0x9e3779b97f4a7c15
	perm := src.Perm(max(nl, spread))
	left = make([]Row, nl)
	for i := range left {
		left[i] = Row{Key: uint64(perm[i]) * scatter, Val: src.Uint64n(1000)}
	}
	right = make([]Row, nr)
	for i := range right {
		right[i] = Row{Key: src.Uint64n(uint64(spread)) * scatter, Val: src.Uint64n(1000)}
	}
	return left, right
}

// joinSpreads are the right-key distributions: sparse keys that often miss
// the left table, a few heavily duplicated keys, and a single key.
func joinSpreads(nl int) []int { return []int{3 * nl, nl/4 + 1, 1} }

// TestJoinRandom: sparse right keys, so many right rows miss the left table.
func TestJoinRandom(t *testing.T) {
	src := prng.New(404)
	for _, cfg := range joinConfigs {
		for _, nl := range []int{1, 5, 16, 33} {
			for _, nr := range []int{1, 7, 16, 50} {
				left, right := joinRows(src, nl, nr, 3*nl)
				checkJoin(t, cfg, left, right, fmt.Sprintf("mode=%d backend=%d nl=%d nr=%d",
					cfg.Mode, cfg.SortBackend, nl, nr))
			}
		}
	}
}

// TestJoinProperty: every right-key distribution of joinSpreads over sizes
// that cross power-of-two paddings.
func TestJoinProperty(t *testing.T) {
	src := prng.New(0xB22)
	sizes := []int{1, 2, 5, 9, 17, 24}
	for _, cfg := range joinConfigs {
		for _, nl := range sizes {
			for _, nr := range sizes {
				for dist, spread := range joinSpreads(nl) {
					left, right := joinRows(src, nl, nr, spread)
					checkJoin(t, cfg, left, right, fmt.Sprintf("mode=%d backend=%d nl=%d nr=%d dist=%d",
						cfg.Mode, cfg.SortBackend, nl, nr, dist))
				}
			}
		}
	}
}

func TestJoinNoMatches(t *testing.T) {
	for _, cfg := range joinConfigs {
		checkJoin(t, cfg, []Row{{1, 10}, {2, 20}}, []Row{{7, 1}, {8, 2}, {9, 3}}, "no matches")
	}
}

// TestJoinLookupKeyRange: Join and Lookup take the whole table key range —
// keys at 2^62, 2^63 and relops.KeyLimit-1 route like any other — and
// Lookup refuses the filler sentinel with ErrKeyTooLarge.
func TestJoinLookupKeyRange(t *testing.T) {
	const top = relops.KeyLimit - 1
	left := []Row{{Key: 1 << 62, Val: 1}, {Key: 1 << 63, Val: 2}, {Key: top, Val: 3}, {Key: 5, Val: 4}}
	right := []Row{
		{Key: top, Val: 10}, {Key: 1 << 62, Val: 11}, {Key: top - 1, Val: 12},
		{Key: 1 << 63, Val: 13}, {Key: top, Val: 14}, {Key: 1<<62 + 1, Val: 15},
	}
	keys, vals, queries := make([]uint64, len(left)), make([]uint64, len(left)), make([]uint64, len(right))
	ref := map[uint64]uint64{}
	for i, r := range left {
		keys[i], vals[i] = r.Key, r.Val
		ref[r.Key] = r.Val
	}
	for j, r := range right {
		queries[j] = r.Key
	}
	for _, cfg := range joinConfigs {
		label := fmt.Sprintf("mode=%d backend=%d", cfg.Mode, cfg.SortBackend)
		checkJoin(t, cfg, left, right, label)
		got, found, _, err := Lookup(cfg, keys, vals, queries)
		if err != nil {
			t.Fatalf("%s: Lookup: %v", label, err)
		}
		for j, q := range queries {
			want, ok := ref[q]
			if found[j] != ok || (ok && got[j] != want) {
				t.Fatalf("%s: Lookup(%d) = %d, %t; want %d, %t", label, q, got[j], found[j], want, ok)
			}
		}
	}
	if _, _, _, err := Lookup(Config{}, []uint64{1}, []uint64{1}, []uint64{relops.KeyLimit}); !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("sentinel query: err = %v, want ErrKeyTooLarge", err)
	}
}

// TestJoinObliviousTrace: Join's view is a function of the two table sizes
// only — same-shape instances whose keys, values and match counts differ
// wildly produce identical metered fingerprints.
func TestJoinObliviousTrace(t *testing.T) {
	const nr = 48
	src := prng.New(99)
	lefts := [][]Row{
		{{7, 0}, {8, 0}, {9, 0}},
		{{0, 1 << 30}, {1, 2}, {2, 3}},
		{{100, 5}, {relops.KeyLimit - 1, 6}, {1 << 63, 7}},
	}
	rights := make([][]Row, len(lefts))
	for i := range rights {
		rights[i] = make([]Row, nr)
	}
	for j := 0; j < nr; j++ {
		rights[0][j] = Row{Key: 7, Val: 0}                               // every row matches one key
		rights[1][j] = Row{Key: uint64(j) << 50, Val: 1<<35 + uint64(j)} // distinct keys, one match
		rights[2][j] = Row{Key: src.Uint64n(4), Val: src.Uint64n(1 << 30)}
	}
	cfg := Config{Mode: ModeMetered, Trace: true, SortBackend: SortBitonic}
	var first *Report
	for i := range lefts {
		_, rep, err := Join(cfg, mustTable(t, lefts[i]), mustTable(t, rights[i]))
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = rep
		} else if !rep.TraceFingerprint.Equal(first.TraceFingerprint) {
			t.Fatalf("instance %d: Join's view depends on the table contents", i)
		}
	}
}

// FuzzJoin replays the TestJoinProperty checker on fuzzer-shaped instances:
// seed draws the rows, the sizes fold into [1, 33], dist picks the right
// keys' spread and cfg one of joinConfigs.
func FuzzJoin(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(9), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(17), uint8(12), uint8(1), uint8(1))
	f.Add(uint64(3), uint8(8), uint8(8), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, nl, nr, dist, cfg uint8) {
		l, r := int(nl%33)+1, int(nr%33)+1
		left, right := joinRows(prng.New(seed), l, r, joinSpreads(l)[int(dist)%3])
		checkJoin(t, joinConfigs[int(cfg)%len(joinConfigs)], left, right,
			fmt.Sprintf("seed=%d nl=%d nr=%d dist=%d cfg=%d", seed, l, r, dist, cfg))
	})
}
