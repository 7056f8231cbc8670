package main

import (
	"cmp"
	"slices"

	"oblivmc"
	"oblivmc/client"
)

// This file is the plain-Go reference: slices.SortFunc, binary search, maps
// and union-find on one goroutine, with data-dependent access patterns. It
// answers every op of every workload; the checker compares the engine against
// it and tax_x times it. The batch references sort where the engine sorts, so
// the tax is that of obliviousness and not of a different algorithm.

// outRow is the canonical form every result is compared in: two key columns
// and two values, unused ones zero.
type outRow [4]uint64

func narrowOut(rows []oblivmc.Row) []outRow {
	out := make([]outRow, len(rows))
	for i, r := range rows {
		out[i] = outRow{r.Key, 0, r.Val}
	}
	return out
}

func wideOut(rows []oblivmc.WideRow) []outRow {
	out := make([]outRow, len(rows))
	for i, r := range rows {
		out[i] = outRow{r.Keys[0], 0, r.Val}
		if len(r.Keys) > 1 {
			out[i][1] = r.Keys[1]
		}
	}
	return out
}

func joinedOut(rows []oblivmc.WideJoinedRow) []outRow {
	out := make([]outRow, len(rows))
	for i, r := range rows {
		out[i] = outRow{r.Keys[0], 0, r.LeftVal, r.RightVal}
	}
	return out
}

func clientOut(rows []client.Row) []outRow {
	out := make([]outRow, len(rows))
	for i, r := range rows {
		out[i] = outRow{r.Keys[0], 0, r.Val}
	}
	return out
}

// byValDesc orders rows by descending value, the engine's top-k order.
func byValDesc(a, b outRow) int { return cmp.Compare(b[2], a[2]) }

const fusedTopK = 10

// refFused answers Filter(Val >= threshold) → Distinct → GroupBy(sum) → TopK
// the way the engine does, minus the obliviousness: sort the survivors by
// (key, position), keep each key's first row (after Distinct it is the key's
// only row, so the group sum is its value), sort those by value.
func refFused(in fusedInput) []outRow {
	type row struct {
		key, val uint64
		pos      int
	}
	kept := make([]row, 0, len(in.rows))
	for i, r := range in.rows {
		if r.Val >= in.threshold {
			kept = append(kept, row{r.Key, r.Val, i})
		}
	}
	slices.SortFunc(kept, func(a, b row) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.pos, b.pos))
	})
	var out []outRow
	for i, r := range kept {
		if i == 0 || kept[i-1].key != r.key {
			out = append(out, outRow{r.key, 0, r.val})
		}
	}
	slices.SortFunc(out, byValDesc)
	return out[:min(fusedTopK, len(out))]
}

// refGroupAvg answers GroupBy(avg) over width-2 rows: sort by (key tuple,
// position), fold each run into floor(sum/count), and put the groups back in
// first-occurrence order.
func refGroupAvg(rows []oblivmc.WideRow) []outRow {
	type row struct {
		k1, k2, val uint64
		pos         int
	}
	s := make([]row, len(rows))
	for i, r := range rows {
		s[i] = row{r.Keys[0], r.Keys[1], r.Val, i}
	}
	slices.SortFunc(s, func(a, b row) int {
		return cmp.Or(cmp.Compare(a.k1, b.k1), cmp.Compare(a.k2, b.k2), cmp.Compare(a.pos, b.pos))
	})
	var groups []row // val = the average, pos = the first occurrence
	for i := 0; i < len(s); {
		j, sum := i, uint64(0)
		for ; j < len(s) && s[j].k1 == s[i].k1 && s[j].k2 == s[i].k2; j++ {
			sum += s[j].val
		}
		groups = append(groups, row{s[i].k1, s[i].k2, sum / uint64(j-i), s[i].pos})
		i = j
	}
	slices.SortFunc(groups, func(a, b row) int { return cmp.Compare(a.pos, b.pos) })
	out := make([]outRow, len(groups))
	for i, g := range groups {
		out[i] = outRow{g.k1, g.k2, g.val}
	}
	return out
}

// refJoin answers the many-to-many equi-join as a sort-merge in the engine's
// public order: by right row position, then left row position.
func refJoin(in joinInput) []outRow {
	left := slices.Clone(in.left) // Val is the left row's position
	slices.SortFunc(left, func(a, b oblivmc.Row) int {
		return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Val, b.Val))
	})
	out := make([]outRow, 0, in.maxOut)
	for _, r := range in.right {
		i, _ := slices.BinarySearchFunc(left, r.Key, func(l oblivmc.Row, key uint64) int { return cmp.Compare(l.Key, key) })
		for ; i < len(left) && left[i].Key == r.Key; i++ {
			out = append(out, outRow{r.Key, 0, left[i].Val, r.Val})
		}
	}
	return out
}

// refComponents labels every vertex with the minimum vertex id of its
// component (union-find, the smaller root always wins).
func refComponents(n int, edges []oblivmc.WeightedEdge) []outRow {
	parent := make([]int, n)
	for v := range parent {
		parent[v] = v
	}
	find := func(v int) int {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for _, e := range edges {
		a, b := find(e.U), find(e.V)
		if a != b {
			parent[max(a, b)] = min(a, b)
		}
	}
	out := make([]outRow, n)
	for v := range out {
		out[v] = outRow{uint64(v), 0, uint64(find(v))}
	}
	return out
}

// refSpec answers one served query over narrow rows. It covers the clauses
// serve_mix sends: a ">=" filter on the key (col 0) or the value (col -1),
// group-by sum or max, top-k, and key-ordered output.
func refSpec(rows []oblivmc.Row, spec client.Spec) []outRow {
	type acc struct {
		val   uint64
		first int
	}
	groups := make(map[uint64]*acc)
	for i, r := range rows {
		if f := spec.Filter; f != nil {
			x := r.Key
			if f.Col == -1 {
				x = r.Val
			}
			if x < f.Value {
				continue
			}
		}
		a := groups[r.Key]
		switch {
		case a == nil:
			groups[r.Key] = &acc{val: r.Val, first: i}
		case spec.GroupBy == "sum":
			a.val += r.Val
		default: // max
			a.val = max(a.val, r.Val)
		}
	}
	out := make([]outRow, 0, len(groups))
	for k, a := range groups {
		out = append(out, outRow{k, uint64(a.first), a.val})
	}
	switch {
	case spec.TopK > 0:
		slices.SortFunc(out, byValDesc)
		out = out[:min(spec.TopK, len(out))]
	case spec.KeyOrderOut:
		slices.SortFunc(out, func(a, b outRow) int { return cmp.Compare(a[0], b[0]) })
	default:
		slices.SortFunc(out, func(a, b outRow) int { return cmp.Compare(a[1], b[1]) })
	}
	for i := range out {
		out[i][1] = 0
	}
	return out
}
