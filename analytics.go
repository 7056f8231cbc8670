package oblivmc

import (
	"fmt"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/relops"
)

// GroupTotals obliviously computes, for every record i, the sum of values
// over all records sharing groups[i] — the oblivious group-by aggregation
// of the paper's motivating private-analytics workload (§1). The access
// pattern depends only on the number of records: neither the group
// structure nor the values leak. Group keys may repeat (they need not be
// distinct); keys may span the full uint64 range below relops.KeyLimit and
// the record count is bounded by relops.MaxRows — the schedule-derived
// relational-layer bounds (the sorts run against an obliv.KeySchedule with
// the in-register TiePos position tie-break rather than a packed
// composite, so no bit-packing headroom constrains the key range).
func GroupTotals(cfg Config, groups, values []uint64) ([]uint64, *Report, error) {
	n := len(groups)
	if n == 0 {
		return nil, nil, ErrEmptyInput
	}
	if len(values) != n {
		return nil, nil, fmt.Errorf("oblivmc: %d groups but %d values", n, len(values))
	}
	if int64(n) > relops.MaxRows {
		return nil, nil, fmt.Errorf("%w (%d records)", ErrTooManyRows, n)
	}
	for i, g := range groups {
		if g >= relops.KeyLimit {
			return nil, nil, fmt.Errorf("%w (group key %d, index %d)", ErrKeyTooLarge, g, i)
		}
	}
	out := make([]uint64, n)
	rep, err := run(cfg, func(e exec, c *forkjoin.Ctx, sp *mem.Space) {
		// The two sorts run the configured relational backend: both are
		// (key, position) schedules with distinct effective keys, so the
		// shuffle composition applies above its crossover.
		w := mem.Alloc[obliv.Elem](sp, obliv.NextPow2(n))
		for i := 0; i < n; i++ {
			w.Data()[i] = obliv.Elem{Key: groups[i], Val: values[i], Aux: uint64(i), Kind: obliv.Real}
		}
		m := w.Len()
		ksort := obliv.NewKeyedSort(sp, m, e.srt)
		// (key, position) order: one cached key plane, the position
		// tie-break read in-register (TiePos) — deterministic under
		// duplicate group keys, fillers (InfKey sentinel) last.
		ksort.Sort(c, w, 0, m, func(e obliv.Elem) uint64 {
			if e.Kind != obliv.Real {
				return obliv.InfKey
			}
			return e.Key
		})
		sameGroup := func(x, y obliv.Elem) bool {
			return x.Kind == y.Kind && (x.Kind != obliv.Real || x.Key == y.Key)
		}
		// Suffix sums per group; the group's first entry holds the total.
		obliv.AggregateSuffixBy(c, sp, w, sameGroup,
			func(e obliv.Elem) uint64 { return e.Val },
			func(x, y uint64) uint64 { return x + y },
			func(e obliv.Elem, i int, agg uint64) obliv.Elem {
				e.Lbl = agg
				return e
			})
		// Propagate the total from the group's first entry to everyone.
		obliv.PropagateFirstBy(c, sp, w, sameGroup,
			func(e obliv.Elem, i int) (uint64, bool) { return e.Lbl, e.Kind == obliv.Real },
			func(e obliv.Elem, i int, v uint64, ok bool) obliv.Elem {
				if ok {
					e.Lbl = v
				}
				return e
			})
		// Back to input order (single-word position schedule).
		ksort.Sort(c, w, 0, m, func(e obliv.Elem) uint64 {
			if e.Kind != obliv.Real {
				return obliv.InfKey
			}
			return e.Aux
		})
		for i := 0; i < n; i++ {
			out[i] = w.Data()[i].Lbl
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return out, rep, nil
}

// Lookup obliviously joins queries against a key-value table via
// send-receive (§F): result[i] holds the value for queries[i] and found[i]
// reports whether the key exists. Table keys must be distinct; all keys
// must be below relops.KeyLimit, the table key bound (ErrKeyTooLarge
// otherwise). The access pattern depends only on the table and query
// sizes. The routing sorts run the configured sort backend
// (Config.SortBackend), like every other relational operation.
func Lookup(cfg Config, tableKeys, tableVals, queries []uint64) ([]uint64, []bool, *Report, error) {
	if len(tableKeys) == 0 || len(queries) == 0 {
		return nil, nil, nil, ErrEmptyInput
	}
	if len(tableVals) != len(tableKeys) {
		return nil, nil, nil, fmt.Errorf("oblivmc: %d keys but %d values", len(tableKeys), len(tableVals))
	}
	for _, keys := range [][]uint64{tableKeys, queries} {
		for i, k := range keys {
			if k >= relops.KeyLimit {
				return nil, nil, nil, fmt.Errorf("%w (key %d, index %d)", ErrKeyTooLarge, k, i)
			}
		}
	}
	return sendReceive(cfg, len(tableKeys), len(queries),
		func(i int) (uint64, uint64) { return tableKeys[i], tableVals[i] },
		func(j int) uint64 { return queries[j] })
}

// sendReceive is the one loader of the primary-key joins (Lookup, Join):
// it loads n (key, value) sources src(i) and m destination keys dst(j),
// routes them through one obliv.SendReceive under cfg, and returns, for
// each destination, the value of the source holding its key and whether
// one does. Keys must be below relops.KeyLimit; a duplicated source key
// is an error.
func sendReceive(cfg Config, n, m int, src func(i int) (key, val uint64), dst func(j int) uint64) ([]uint64, []bool, *Report, error) {
	seen := make(map[uint64]bool, n)
	for i := range n {
		k, _ := src(i)
		if seen[k] {
			return nil, nil, nil, fmt.Errorf("oblivmc: table key %d (row %d) is duplicated", k, i)
		}
		seen[k] = true
	}
	vals := make([]uint64, m)
	found := make([]bool, m)
	rep, err := run(cfg, func(e exec, c *forkjoin.Ctx, sp *mem.Space) {
		sources := mem.Alloc[obliv.Elem](sp, n)
		for i := range n {
			k, v := src(i)
			sources.Data()[i] = obliv.Elem{Key: k, Val: v, Kind: obliv.Real}
		}
		dests := mem.Alloc[obliv.Elem](sp, m)
		for j := range m {
			dests.Data()[j] = obliv.Elem{Key: dst(j), Kind: obliv.Real}
		}
		routed := obliv.SendReceive(c, sp, sources, dests, e.srt)
		for j, r := range routed.Data() {
			vals[j] = r.Val
			found[j] = r.Kind == obliv.Real
		}
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return vals, found, rep, nil
}
