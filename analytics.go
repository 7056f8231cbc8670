package oblivmc

import (
	"fmt"

	"oblivmc/internal/bitonic"
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
// the record count is bounded by relops.MaxRows. It is one recorded plane
// sort by group with the value carried, a segmented run total
// (obliv.RunTotals) and one un-sort, on the cache-agnostic bitonic network
// whatever Config.SortBackend says; sums wrap modulo 2^64.
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
	rep, err := run(cfg, func(_ exec, c *forkjoin.Ctx, sp *mem.Space) {
		// Two planes, the group key and the value; the padding keys InfKey
		// and sorts last. One recorded sort by group carries the values,
		// RunTotals gives every slot its group's total, and the un-sort
		// takes each total home.
		m := obliv.NextPow2(n)
		planes, scr := mem.Alloc[uint64](sp, 2*m), mem.Alloc[uint64](sp, 2*m)
		keys, vals := planes.View(0, m), planes.View(m, m)
		for i := range m {
			keys.Data()[i] = obliv.InfKey
			if i < n {
				keys.Data()[i], vals.Data()[i] = groups[i], values[i]
			}
		}
		rec := mem.Alloc[uint64](sp, bitonic.RecordWords(c, m, 0))
		bitonic.SortRecorded(c, obliv.NewKeySchedule(planes, m, 2), obliv.NewKeySchedule(scr, m, 2), 1, rec, m)
		obliv.RunTotals(c, sp, keys, vals)
		bitonic.Unsort(c, obliv.NewKeySchedule(vals, m, 1), obliv.NewKeySchedule(scr, m, 1), rec, m)
		copy(out, vals.Data()[:n])
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
// sizes. The routing is one obliv.SendReceivePlanes: one plane sort and one
// un-sort on the cache-agnostic bitonic network, whatever
// Config.SortBackend says.
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
// routes them through one obliv.SendReceivePlanes, and returns, for
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
	rep, err := run(cfg, func(_ exec, c *forkjoin.Ctx, sp *mem.Space) {
		srcKeys, srcVals, dstKeys := mem.Alloc[uint64](sp, n), mem.Alloc[uint64](sp, n), mem.Alloc[uint64](sp, m)
		for i := range n {
			srcKeys.Data()[i], srcVals.Data()[i] = src(i)
		}
		for j := range m {
			dstKeys.Data()[j] = dst(j)
		}
		got, hit := obliv.SendReceivePlanes(c, sp, srcKeys, srcVals, dstKeys)
		for j := range m {
			vals[j], found[j] = got.Data()[j], hit.Data()[j] != 0
		}
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return vals, found, rep, nil
}
