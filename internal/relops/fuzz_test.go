package relops

// Native fuzz targets over the property checkers of property_test.go: the
// fuzzer mutates (seed, sizes, width, distribution) tuples and each input
// replays a full operator-vs-reference comparison. `go test` runs the seed
// corpus as regular tests; CI's `make fuzz-smoke` step runs each target
// under -fuzz for a short budget.

import "testing"

// fuzzShape folds raw fuzz bytes into a legal (n, w, dist) shape. Sizes are
// kept small enough for the exact reference sorters while still crossing
// power-of-two paddings.
func fuzzShape(n, w, dist uint8) (int, int, int) {
	return int(n%33) + 1, int(w%MaxKeyCols) + 1, int(dist % distKinds)
}

func FuzzJoinAll(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint8(7), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(16), uint8(16), uint8(1), uint8(1))
	f.Add(uint64(3), uint8(3), uint8(31), uint8(0), uint8(2))
	f.Add(uint64(4), uint8(32), uint8(1), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, nl, nr, w, dist uint8) {
		nlv, wv, dv := fuzzShape(nl, w, dist)
		nrv, _, _ := fuzzShape(nr, w, dist)
		checkJoinAll(t, seed, nlv, nrv, wv, dv)
	})
}

func FuzzGroupBy(f *testing.F) {
	f.Add(uint64(1), uint8(9), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(24), uint8(1), uint8(1), uint8(4))
	f.Add(uint64(3), uint8(17), uint8(0), uint8(2), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, n, w, dist, agg uint8) {
		nv, wv, dv := fuzzShape(n, w, dist)
		checkGroupBy(t, seed, nv, wv, dv, allAggs[int(agg)%len(allAggs)])
	})
}

func FuzzDistinct(f *testing.F) {
	f.Add(uint64(1), uint8(9), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(24), uint8(1), uint8(1))
	f.Add(uint64(3), uint8(17), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, n, w, dist uint8) {
		nv, wv, dv := fuzzShape(n, w, dist)
		checkDistinct(t, seed, nv, wv, dv)
	})
}

// FuzzJoinAllCapacityAdvisor differentially fuzzes the auto capacity: the
// bound a CapAuto JoinAll adopts must equal the nested-loop reference's
// pair count, and the join must deliver every match without overflowing —
// the property the JoinCapAuto mode rests on.
func FuzzJoinAllCapacityAdvisor(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint8(7), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(16), uint8(16), uint8(1), uint8(1))
	f.Add(uint64(3), uint8(3), uint8(31), uint8(0), uint8(2))
	f.Add(uint64(4), uint8(32), uint8(1), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, nl, nr, w, dist uint8) {
		nlv, wv, dv := fuzzShape(nl, w, dist)
		nrv, _, _ := fuzzShape(nr, w, dist)
		checkJoinCapAdvise(t, seed, nlv, nrv, wv, dv)
	})
}

// FuzzGroupByBackends differentially fuzzes the shuffle-then-sort backend
// against the keyed bitonic backend: the same GroupBy instance, and a TopK
// over the same records made tie-heavy, must produce identical surviving
// records under both (every keyed sort breaks ties by position, so outputs
// are backend-independent). The shuffle sorter's seed and k are fuzzed
// too, exercising many permutations and cut points (k may exceed n).
func FuzzGroupByBackends(f *testing.F) {
	f.Add(uint64(1), uint64(1), uint8(9), uint8(0), uint8(0), uint8(0), uint8(1))
	f.Add(uint64(2), uint64(7), uint8(24), uint8(1), uint8(1), uint8(4), uint8(12))
	f.Add(uint64(3), uint64(99), uint8(17), uint8(0), uint8(2), uint8(5), uint8(17))
	f.Fuzz(func(t *testing.T, seed, sortSeed uint64, n, w, dist, agg, k uint8) {
		nv, wv, dv := fuzzShape(n, w, dist)
		checkGroupByBackends(t, seed, sortSeed, nv, wv, dv, allAggs[int(agg)%len(allAggs)], 1+int(k)%(nv+1))
	})
}
