package main

import (
	"math"
	"math/rand/v2"

	"oblivmc"
)

// sizes are the public shapes of the workloads. They are constants of the
// benchmark and never derive from the seed; the seed moves only the contents
// (key skew, duplicate rate, selectivity, graph tail, request schedule).
type sizes struct {
	queryRows  int // query_fused: narrow rows, an exact power of two
	raggedRows int // groupby_wide_ragged: width-2 rows, deliberately not 2^k
	joinLeft   int // join_all: left rows
	joinRight  int // join_all: right rows; also the public output capacity
	ccVerts    int // graph_cc_det: vertices
	ccEdges    int // graph_cc_det: edges
	ccRounds   int // graph_cc_det: fixed public round count R
	serveSmall int // serve_mix: rows of t12 (below the shuffle crossover)
	serveLarge int // serve_mix: rows of t14 (above it)
	serveWarm  int // serve_mix: requests of the schedule run during set-up
	directReqs int // serve_mix: requests of the traced run's direct pass
	probeN     int // probes: elements per call
	probeSmall int // probes: the _small size
	probeSortN int // probes: elements per bitonic sort and per routing call
	pramCells  int // probes: memory cells of the pram gather/scatter
	pramReqs   int // probes: requests of the pram gather/scatter
	meteredN   int // probes: rows of the metered query
}

// fullSizes is what BENCHMARK.json measures. Calibration on the 2-CPU box is
// in the README.
var fullSizes = sizes{
	queryRows:  1 << 18,
	raggedRows: 160001,
	joinLeft:   1 << 13,
	joinRight:  1 << 15,
	ccVerts:    1 << 10,
	ccEdges:    1 << 13,
	ccRounds:   4,
	serveSmall: 1 << 12,
	serveLarge: 1 << 14,
	serveWarm:  mixBlock,
	directReqs: 400,
	probeN:     1 << 17,
	probeSmall: 1 << 12,
	probeSortN: 1 << 15,
	pramCells:  1 << 10,
	pramReqs:   1 << 14,
	meteredN:   1 << 12,
}

// Streams of one seed: each generator draws from its own, so changing one
// workload's generator never shifts another's inputs.
const (
	streamQuery = iota + 1
	streamRagged
	streamJoin
	streamGraph
	streamServeSmall
	streamServeLarge
	streamSchedule
	streamProbe
)

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// skewedKey draws a key below groups with density growing towards 0: u^a for
// uniform u, a >= 1 (a = 1 is uniform).
func skewedKey(r *rand.Rand, groups int, a float64) uint64 {
	return uint64(float64(groups) * math.Pow(r.Float64(), a))
}

// fusedInput is query_fused's table and filter threshold.
type fusedInput struct {
	rows      []oblivmc.Row
	threshold uint64 // the filter keeps Val >= threshold
}

// genFused draws n narrow rows. From the seed: the number of distinct keys
// (n/10..n/8, i.e. 8 to 10 duplicates per key), the skew exponent (1..1.5)
// and the filter selectivity (65..75 % kept). The ranges are narrow so that
// the reference's time, and with it tax_x, does not swing with the seed.
// Values are distinct by construction (the row index is their low bits), so
// the top-k order is unique.
func genFused(seed uint64, n int) fusedInput {
	r := newRand(seed, streamQuery)
	groups := n/10 + r.IntN(n/40+1)
	skew := 1 + r.Float64()/2
	keep := 0.65 + 0.1*r.Float64()
	idxBits := bitsFor(n)
	rows := make([]oblivmc.Row, n)
	for i := range rows {
		rows[i] = oblivmc.Row{
			Key: skewedKey(r, groups, skew),
			Val: r.Uint64N(1<<12)<<idxBits | uint64(i),
		}
	}
	return fusedInput{rows: rows, threshold: uint64((1 - keep) * float64(uint64(1)<<(12+idxBits)))}
}

// bitsFor returns the number of bits that hold every index below n.
func bitsFor(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

// genRagged draws n width-2 rows: a skewed first column over n/40..n/32
// values (seed) spread over the full key range by an odd multiplier, so wide
// compares see high words, and a second column over 8 values.
func genRagged(seed uint64, n int) []oblivmc.WideRow {
	r := newRand(seed, streamRagged)
	groups := n/40 + r.IntN(n/160+1)
	skew := 1 + r.Float64()/2
	rows := make([]oblivmc.WideRow, n)
	for i := range rows {
		rows[i] = oblivmc.WideRow{
			Keys: []uint64{
				skewedKey(r, groups, skew) * 0x9e3779b97f4a7c15 >> 1,
				r.Uint64N(8) * 0x517cc1b727220a95 >> 1,
			},
			Val: r.Uint64N(1 << 30),
		}
	}
	return rows
}

// joinInput is join_all's pair of tables. Values are the row indexes, so
// every joined pair is distinct.
type joinInput struct {
	left, right []oblivmc.Row
	maxOut      int
}

// genJoin draws a many-to-many join. Every left key appears exactly twice,
// and the distinct left keys are a seed-chosen quarter of the key space. The
// right rows draw uniformly from that space, so a quarter of them match, two
// left rows each: the expected match count is maxOut/2 with a standard
// deviation below 1 % of it, and the public capacity is never exceeded.
func genJoin(seed uint64, nLeft, nRight int) joinInput {
	r := newRand(seed, streamJoin)
	distinct := nLeft / 2
	space := 4 * distinct
	keys := r.Perm(space)[:distinct]
	left := make([]oblivmc.Row, 0, nLeft)
	for _, k := range keys {
		left = append(left, oblivmc.Row{Key: uint64(k)}, oblivmc.Row{Key: uint64(k)})
	}
	r.Shuffle(len(left), func(i, j int) { left[i], left[j] = left[j], left[i] })
	for i := range left {
		left[i].Val = uint64(i)
	}
	right := make([]oblivmc.Row, nRight)
	for i := range right {
		right[i] = oblivmc.Row{Key: r.Uint64N(uint64(space)), Val: uint64(i)}
	}
	return joinInput{left: left, right: right, maxOut: nRight}
}

// graphClusters is the number of dense clusters beside the backbone.
const graphClusters = 8

// genGraph draws m edges over n vertices: a path backbone over the first
// half of the vertices, then a random tail. The second half of the vertices
// is split into graphClusters equal clusters; each tail edge falls, by the
// seed, inside the backbone (1 in 4) or inside one cluster. The components
// are therefore the backbone and the clusters, with seed-dependent wiring.
func genGraph(seed uint64, n, m int) []oblivmc.WeightedEdge {
	r := newRand(seed, streamGraph)
	half := n / 2
	per := half / graphClusters
	edges := make([]oblivmc.WeightedEdge, m)
	for i := range edges {
		var e oblivmc.WeightedEdge
		switch {
		case i < half-1:
			e.U, e.V = i, i+1
		case r.IntN(4) == 0:
			e.U, e.V = r.IntN(half), r.IntN(half)
		default:
			base := half + r.IntN(graphClusters)*per
			e.U, e.V = base+r.IntN(per), base+r.IntN(per)
		}
		e.W = r.Uint64N(1 << 20)
		edges[i] = e
	}
	// The table's public vertex count is one past the largest endpoint: pin
	// it to n whatever the tail drew.
	edges[m-1] = oblivmc.WeightedEdge{U: n - 1, V: n - 2, W: 1}
	return edges
}

// genServeRows draws a narrow serving table: n rows over n/8 skewed keys.
// variant selects one of the contents a reload alternates between.
func genServeRows(seed uint64, stream uint64, variant, n int) []oblivmc.Row {
	r := newRand(seed^uint64(variant)*0x9e3779b97f4a7c15, stream)
	skew := 1 + r.Float64()/2
	rows := make([]oblivmc.Row, n)
	for i := range rows {
		rows[i] = oblivmc.Row{Key: skewedKey(r, n/8, skew), Val: r.Uint64N(1 << 30)}
	}
	return rows
}
