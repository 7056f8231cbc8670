// Package benchdata defines the canonical relational and graph benchmark
// workloads shared by the in-repo benchmarks (bench_test.go) and the
// scaling smoke test (parallel_test.go). Keeping one definition keeps
// `go test -bench` numbers comparable across commits — edit here, and
// every surface moves together.
package benchdata

import (
	"oblivmc/internal/graph"
	"oblivmc/internal/prng"
	"oblivmc/internal/relops"
)

// Query pipeline parameters of the end-to-end benchmark
// (Filter→Distinct→GroupBy(Sum)→TopK).
const (
	// FilterDiv drops every FilterDiv-th value: the benchmark filter keeps
	// rows with Val % FilterDiv != 0.
	FilterDiv = 4
	// TopK is the benchmark's top-k cutoff.
	TopK = 10
	// JoinLeftFraction: the join benchmark's primary relation has
	// n/JoinLeftFraction distinct keys.
	JoinLeftFraction = 8
)

// FilterPred is the benchmark query's filter predicate over a row value.
func FilterPred(val uint64) bool { return val%FilterDiv != 0 }

// Records generates the benchmark relation: n records, keys drawn from
// n/8 distinct values, values below 2^30, fixed seed 42.
func Records(n int) []relops.Record {
	src := prng.New(42)
	recs := make([]relops.Record, n)
	for i := range recs {
		recs[i] = relops.Record{Key: src.Uint64n(uint64(n / 8)), Val: src.Uint64n(1 << 30)}
	}
	return recs
}

// WideRecords generates the width-2 benchmark relation: n records whose
// two key columns are drawn from n/32 and 8 distinct values respectively
// (so GROUP BY (a, b) sees ~n/4 composite groups), values below 2^30,
// fixed seed 43. Column values span the full uint64 range scaled by a
// large odd multiplier to exercise wide-key comparisons beyond 2^40.
func WideRecords(n int) []relops.Record {
	src := prng.New(43)
	spread := uint64(n / 32)
	if spread == 0 {
		spread = 1
	}
	recs := make([]relops.Record, n)
	for i := range recs {
		recs[i] = relops.Record{
			Key:  src.Uint64n(spread) * 0x9e3779b97f4a7c15,
			Key2: src.Uint64n(8) * 0x517cc1b727220a95,
			Val:  src.Uint64n(1 << 30),
		}
	}
	return recs
}

// LeftRecords generates the join benchmark's primary relation for a
// foreign relation of n records: n/JoinLeftFraction distinct keys covering
// the low end of Records' key range.
func LeftRecords(n int) []relops.Record {
	nl := n / JoinLeftFraction
	recs := make([]relops.Record, nl)
	for i := range recs {
		recs[i] = relops.Record{Key: uint64(i), Val: uint64(i) * 3}
	}
	return recs
}

// GraphVertexFraction: the graph benchmarks run m-edge graphs over
// n = m/GraphVertexFraction vertices (min 2) — dense enough that the
// min-hook CC converges in a handful of rounds, sparse enough that the
// component structure is nontrivial.
const GraphVertexFraction = 16

// Edge is one weighted benchmark edge: the graph layer's edge type, which
// the public API's WeightedEdge also names, so generated graphs reach both
// uncopied (and the package stays importable from the root benchmarks and
// the CLIs without depending on the public API).
type Edge = graph.WEdge

// GraphEdges generates the canonical m-edge benchmark graph: vertices
// n = m/GraphVertexFraction, a Hamiltonian-path backbone over the first
// half of the vertices (so there is one giant component plus random
// attachments), the rest uniform random pairs, weights below 2^20, fixed
// seed 44. Shared by bench_test.go's graph benchmarks.
func GraphEdges(m int) (n int, edges []Edge) {
	n = m / GraphVertexFraction
	if n < 2 {
		n = 2
	}
	src := prng.New(44)
	edges = make([]Edge, m)
	backbone := n / 2
	for i := range edges {
		if i < backbone-1 {
			edges[i] = Edge{U: i, V: i + 1}
		} else {
			edges[i] = Edge{U: int(src.Uint64n(uint64(n))), V: int(src.Uint64n(uint64(n)))}
		}
		edges[i].W = src.Uint64n(1 << 20)
	}
	return n, edges
}

// JoinAllRecords generates the many-to-many join benchmark workload for a
// foreign relation of n records (n must be a multiple of 16). The left
// relation has n/JoinLeftFraction rows over half as many distinct keys —
// every key appears exactly twice, so the expansion is genuinely
// many-to-many — and the right relation cycles through n/8 keys, of which
// the lower half match. The true match count is therefore exactly n, and
// the returned maxOut (= n) is the tight public capacity: the benchmark
// measures the operator at full occupancy with zero overflow slack.
func JoinAllRecords(n int) (left, right []relops.Record, maxOut int) {
	nl := n / JoinLeftFraction
	left = make([]relops.Record, nl)
	for i := range left {
		left[i] = relops.Record{Key: uint64(i / 2), Val: uint64(i) * 5}
	}
	right = make([]relops.Record, n)
	for i := range right {
		right[i] = relops.Record{Key: uint64(i % (n / 8)), Val: uint64(i) * 3}
	}
	return left, right, n
}
