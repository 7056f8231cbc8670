package relops

// Shuffle-backend tests: (a) output equivalence — every keyed sort breaks
// ties by position (obliv.TiePos) on both backends, so every operator's
// surviving records are identical, order included, under the
// shuffle-then-sort and keyed bitonic backends, across randomized sizes,
// widths, duplicate-heavy key distributions and tie-heavy top-k values;
// (b) the trace guarantees the shuffle backend makes at a fixed seed —
// value-independence of the fingerprint (key *order* independence is
// distributional, supplied by the secret permutation; the variants below
// therefore vary values and payloads while preserving the rank structure,
// and the arbitrary-content fingerprint checks stay pinned to the bitonic
// backend in oblivious_test.go).

import (
	"fmt"
	"slices"
	"testing"

	"oblivmc/internal/bitonic"
	"oblivmc/internal/core"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/obliv/oblivtest"
	"oblivmc/internal/prng"
)

// shuffleSorter forces the shuffle composition at every size; fresh per
// run (the sorter counts its sorts).
func shuffleSorter(seed uint64) obliv.ScheduledSorter {
	return &core.ShuffleSorter{FixedSeed: &seed, Crossover: 2}
}

// relOp is one operator run in place on a loaded relation.
type relOp func(c *forkjoin.Ctx, sp *mem.Space, r Rel, srt obliv.ScheduledSorter)

// topKOp is the top-k pipeline (value sort, rank cut) as a relOp.
func topKOp(k int) relOp {
	return func(c *forkjoin.Ctx, sp *mem.Space, r Rel, srt obliv.ScheduledSorter) {
		runTopK(c, sp, NewArena(), r, k, srt)
	}
}

// tieHeavy folds every value of recs into [0, 4): a value sort over the
// result is almost all tie-break, and a quarter of the rows carry the value
// 0, whose descending key word equals the fillers'.
func tieHeavy(recs []Record) []Record {
	out := slices.Clone(recs)
	for i := range out {
		out[i].Val %= 4
	}
	return out
}

// checkBackends runs op over recs under the forced shuffle backend and the
// keyed bitonic backend and requires identical surviving records, order
// included.
func checkBackends(t testing.TB, sortSeed uint64, recs []Record, w int, op relOp, label string) {
	t.Helper()
	run := func(srt obliv.ScheduledSorter) []Record {
		sp := mem.NewSpace()
		r := mustLoadW(t, sp, recs, w)
		op(testCtx(), sp, r, srt)
		return Unload(r)
	}
	checkRecords(t, run(shuffleSorter(sortSeed)), run(bitonic.CacheAgnostic{}), label)
}

// checkGroupByBackends runs one GroupBy instance, and one TopK(k) instance
// over the same records made tie-heavy, under both backends and requires
// identical surviving records (also the body of FuzzGroupByBackends).
func checkGroupByBackends(t testing.TB, seed, sortSeed uint64, n, w, dist int, agg AggKind, k int) {
	t.Helper()
	recs := genRecords(prng.New(seed), n, w, dist)
	groupBy := func(c *forkjoin.Ctx, sp *mem.Space, r Rel, srt obliv.ScheduledSorter) {
		runGroupBy(c, sp, NewArena(), r, agg, srt)
	}
	checkBackends(t, sortSeed, recs, w, groupBy, "GroupBy backends")
	checkBackends(t, sortSeed, tieHeavy(recs), w, topKOp(k), fmt.Sprintf("TopK(%d) backends", k))
}

// TestBackendEquivalenceProperty sweeps GroupBy, Distinct, Compact, TopK
// (over tie-heavy values) and JoinAll over randomized sizes, both widths,
// and all key distributions (including duplicate-heavy and all-equal),
// asserting record-identical output between the backends.
func TestBackendEquivalenceProperty(t *testing.T) {
	sizes := []int{1, 2, 5, 9, 17, 24, 64, 100}
	seed := uint64(0xE0)
	for _, dist := range []int{distSpread, distDupHeavy, distAllEqual} {
		for _, w := range []int{1, 2} {
			for _, n := range sizes {
				seed++
				checkGroupByBackends(t, seed, seed*3, n, w, dist, allAggs[int(seed)%len(allAggs)], 1+int(seed)%n)

				src := prng.New(seed ^ 0xD15)
				recs := genRecords(src, n, w, dist)
				distinct := func(c *forkjoin.Ctx, sp *mem.Space, r Rel, srt obliv.ScheduledSorter) {
					runDistinct(c, sp, NewArena(), r, srt)
				}
				compact := func(c *forkjoin.Ctx, sp *mem.Space, r Rel, srt obliv.ScheduledSorter) {
					runCompact(c, sp, NewArena(), r, func(rec Record) bool { return rec.Val%3 != 0 }, srt)
				}
				checkBackends(t, seed, recs, w, distinct, "Distinct backends")
				checkBackends(t, seed, recs, w, compact, "Compact backends")
				for _, k := range []int{1, max(n/2, 1), n} {
					checkBackends(t, seed, tieHeavy(recs), w, topKOp(k), fmt.Sprintf("TopK(%d) backends", k))
				}

				if n >= 2 {
					lrecs := genRecords(src, (n+1)/2, w, dist)
					maxOut := len(lrecs)*n + 1
					runJoin := func(srt obliv.ScheduledSorter) []Joined {
						sp := mem.NewSpace()
						l := mustLoadW(t, sp, lrecs, w)
						r := mustLoadW(t, sp, recs, w)
						out, _, err := JoinAll(testCtx(), sp, NewArena(), l, r, maxOut, srt)
						if err != nil {
							t.Fatal(err)
						}
						return UnloadJoined(out)
					}
					checkJoined(t, runJoin(shuffleSorter(seed)), runJoin(bitonic.CacheAgnostic{}), "JoinAll backends")
				}
			}
		}
	}
}

// rankedRecords builds duplicate-heavy records whose key *ranks* are fixed
// by the shape (i%groups) while the numeric key values and payloads come
// from scale/bias/valSeed — the content axis the shuffle backend's
// fixed-seed fingerprint must be blind to.
func rankedRecords(n, w int, scale, bias, valSeed uint64) []Record {
	recs := make([]Record, n)
	for i := range recs {
		rank := uint64(i % 7)
		recs[i] = Record{Key: rank*scale + bias, Val: prng.Mix64(valSeed + uint64(i))}
		if w > 1 {
			recs[i].Key2 = uint64(i%3)*scale + bias
		}
	}
	return recs
}

// TestShuffleBackendFixedSeedTraceValueIndependent is the relational half
// of the acceptance criterion: at a fixed sorter seed, a full GroupBy
// pipeline under the forced shuffle backend produces identical trace
// fingerprints across inputs whose key values and payloads differ wildly
// but whose rank structure agrees — at every tested key width.
func TestShuffleBackendFixedSeedTraceValueIndependent(t *testing.T) {
	const n = 48
	for _, w := range []int{1, 2} {
		for _, agg := range []AggKind{AggSum, AggAvg} {
			body := func(scale, bias, valSeed uint64) oblivtest.Body {
				return func(c *forkjoin.Ctx, sp *mem.Space) {
					r := mustLoadW(t, sp, rankedRecords(n, w, scale, bias, valSeed), w)
					runGroupBy(c, sp, NewArena(), r, agg, shuffleSorter(0xF00D))
				}
			}
			oblivtest.FingerprintEqual(t, "GroupBy shuffle backend",
				body(1, 0, 1),
				body(1<<40, 9, 0xBEEF),
				body(0x9e3779b97f4a7c15>>2, 1<<33, 77),
			)
		}
	}
}

// TestShuffleBackendLockstep drives the shape-randomized lockstep runner
// under the forced shuffle backend: within a round every variant shares
// the shape-drawn sizes, widths, AND key ranks (keys come from the shape
// source — under shuffle-then-sort the key order is exactly the quantity
// whose hiding is distributional rather than per-seed), while payload
// values vary per variant. Views within a round must agree.
func TestShuffleBackendLockstep(t *testing.T) {
	oblivtest.Lockstep(t, "GroupBy shuffle", 4, 3, 2027,
		func(c *forkjoin.Ctx, sp *mem.Space, shape, content *prng.Source) {
			n := 1 + shape.Intn(48)
			w := 1 + shape.Intn(MaxKeyCols)
			recs := make([]Record, n)
			for i := range recs {
				recs[i] = Record{
					Key:  shape.Uint64n(6) * 0x9e3779b97f4a7c15 >> 1,
					Key2: shape.Uint64n(3),
					Val:  content.Uint64n(1 << 30), // the secret content axis
				}
			}
			r := mustLoadW(t, sp, recs, w)
			runGroupBy(c, sp, NewArena(), r, AggSum, shuffleSorter(0xCAFE))
		})
}

// TestShuffleBackendTraceShapeSensitive is the sanity inverse: the forced
// shuffle backend's view must still change with the public shape.
func TestShuffleBackendTraceShapeSensitive(t *testing.T) {
	body := func(n int) oblivtest.Body {
		return func(c *forkjoin.Ctx, sp *mem.Space) {
			r := mustLoadW(t, sp, rankedRecords(n, 1, 1, 0, 1), 1)
			runGroupBy(c, sp, NewArena(), r, AggSum, shuffleSorter(1))
		}
	}
	oblivtest.Different(t, "GroupBy shuffle size", body(24), body(48))
}
