package oblivmc

import (
	"fmt"

	"oblivmc/internal/core"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/graph"
	"oblivmc/internal/mem"
	"oblivmc/internal/plan"
	"oblivmc/internal/relops"
)

// GraphOp selects the workload for GraphExplain.
type GraphOp int

const (
	// GraphOpComponents — min-hook connected components (Components).
	GraphOpComponents GraphOp = iota
	// GraphOpMSF — Borůvka minimum spanning forest (MSF /
	// MinimumSpanningForest).
	GraphOpMSF
	// GraphOpPageRank — PageRank's fixed-point iterated aggregate
	// (PageRank).
	GraphOpPageRank
)

// plan is the operator's sort-pass accounting at the public shape: the
// GraphOp values are plan's GraphKinds, in the same order.
func (op GraphOp) plan(n, m, rounds int) plan.GraphPlan {
	return plan.BuildGraph(plan.GraphShape{Kind: plan.GraphKind(op), N: n, M: m, Rounds: rounds})
}

// GraphExplain renders the sort-pass accounting of a graph operator at the
// public shape (n vertices, m edges, rounds — the fixed round count for
// Components, the iteration count for PageRank, ignored otherwise), e.g.
//
//	cc-minhook(n=65536, m=1048576): gather → scatter-min → jump → jump
//	[1 + 3 sorts/round × 4 rounds = 13 sorts, 12 replays]
//
// Like Explain for relational queries, the output is a pure function of
// the shape — the same accounting the metered-run tests pin.
func GraphExplain(op GraphOp, n, m, rounds int) string {
	return op.plan(n, m, rounds).String()
}

// GraphExplainTable is GraphExplain against a concrete edge table: the
// vertex and edge counts are taken from the table's public shape.
func GraphExplainTable(op GraphOp, edges Table, rounds int) (string, error) {
	el, err := edges.Edges()
	if err != nil {
		return "", err
	}
	return GraphExplain(op, graphShape(el), len(el), rounds), nil
}

// NewEdgeTable wraps a weighted edge list in a width-2 Table: key column 0
// is the edge's U endpoint, key column 1 its V endpoint, and the value is
// the weight. Edge tables are the relational form of a graph — they flow
// through the generic operators (Filter on weight, Distinct to dedupe,
// JoinAllRows for multi-hop expansion) and into the graph operators
// (Components, MSF, PageRank). Endpoints must be non-negative; the usual
// table bounds apply (ErrKeyTooLarge / ErrTooManyRows).
func NewEdgeTable(edges []WeightedEdge) (Table, error) {
	rows := make([]WideRow, len(edges))
	for i, e := range edges {
		if e.U < 0 || e.V < 0 {
			return Table{}, fmt.Errorf("oblivmc: edge %d has a negative endpoint", i)
		}
		rows[i] = WideRow{Keys: []uint64{uint64(e.U), uint64(e.V)}, Val: e.W}
	}
	return NewWideTable(rows)
}

// Edges returns a fresh weighted-edge view of a width-2 table's rows (the
// inverse of NewEdgeTable). Tables of any other width return ErrBadWidth.
func (t Table) Edges() ([]WeightedEdge, error) {
	if t.Width() != 2 {
		return nil, fmt.Errorf("%w (edge tables have 2 key columns, this table has %d)", ErrBadWidth, t.Width())
	}
	out := make([]WeightedEdge, len(t.recs))
	for i, r := range t.recs {
		out[i] = WeightedEdge{U: int(r.Key), V: int(r.Key2), W: r.Val}
	}
	return out, nil
}

// graphShape derives the public vertex count of an edge table: one past the
// largest endpoint. The count is public shape (it is a function of the key
// columns, which the relational layer already treats as boundable by the
// caller), so revealing it leaks nothing beyond the table bounds.
func graphShape(edges []WeightedEdge) int {
	n := 0
	for _, e := range edges {
		if e.U >= n {
			n = e.U + 1
		}
		if e.V >= n {
			n = e.V + 1
		}
	}
	return n
}

// runGraph is the one graph execution path: the public Components / MSF /
// PageRank and Session.RunGraphCtx all land here. It converts the edge
// table once, derives the public shape, checks op's arguments against it,
// and runs op's one internal/graph kernel in one run of e's environment.
// The returned plan is the operator's accounting at that shape, for the
// caller's bookkeeping.
func runGraph(e exec, edges Table, op GraphOp, rounds int) (Table, *Report, plan.GraphPlan, error) {
	fail := func(err error) (Table, *Report, plan.GraphPlan, error) {
		return Table{}, nil, plan.GraphPlan{}, err
	}
	el, err := edges.Edges()
	if err != nil {
		return fail(err)
	}
	if len(el) == 0 {
		return fail(ErrEmptyInput)
	}
	n := graphShape(el)
	switch {
	case op == GraphOpComponents && rounds < 0:
		err = fmt.Errorf("oblivmc: negative round count %d", rounds)
	case op == GraphOpMSF:
		err = checkMSF(n, el)
	case op == GraphOpPageRank && rounds < 1:
		err = fmt.Errorf("oblivmc: PageRank needs at least 1 iteration, got %d", rounds)
	case op == GraphOpPageRank && int64(n+len(el)) > relops.MaxRows:
		err = fmt.Errorf("%w (%d vertices + %d edges)", ErrTooManyRows, n, len(el))
	case op < GraphOpComponents || op > GraphOpPageRank:
		err = fmt.Errorf("oblivmc: unknown graph operator %d", op)
	}
	if err != nil {
		return fail(err)
	}
	var out Table
	rep, err := e.run(func(c *forkjoin.Ctx, sp *mem.Space) {
		switch op {
		case GraphOpComponents:
			pairs := make([][2]int, len(el))
			for i, ed := range el {
				pairs[i] = [2]int{ed.U, ed.V}
			}
			labels, _ := graph.ConnectedComponentsMinHook(c, sp, n, pairs, rounds, core.Params{})
			out = vertexTable(labels)
		case GraphOpMSF:
			chosen := graph.MinimumSpanningForestOblivious(c, sp, n, el)
			// A forest with no edges (self-loop-only input) is an empty
			// edge table.
			out = Table{recs: make([]relops.Record, len(chosen)), width: 2}
			for i, ci := range chosen {
				out.recs[i] = relops.Record{Key: uint64(el[ci].U), Key2: uint64(el[ci].V), Val: el[ci].W}
			}
		case GraphOpPageRank:
			out = vertexTable(graph.PageRankOblivious(c, sp, n, el, rounds))
		}
	})
	if err != nil {
		return fail(err)
	}
	return out, rep, op.plan(n, len(el), rounds), nil
}

// vertexTable is the width-1 table mapping every vertex v to vals[v].
func vertexTable[T int | uint64](vals []T) Table {
	recs := make([]relops.Record, len(vals))
	for v, x := range vals {
		recs[v] = relops.Record{Key: uint64(v), Val: uint64(x)}
	}
	return Table{recs: recs, width: 1}
}

// Components obliviously labels the connected components of the undirected
// graph carried by a width-2 edge table and returns a width-1 table mapping
// every vertex 0..n-1 (n = one past the largest endpoint) to the minimum
// vertex id of its component. It runs the min-hook labeling
// (graph.ConnectedComponentsMinHook): each round is one batched endpoint
// gather, one min-combining conflict-resolved scatter, and two pointer
// jumps. Its gathers and scatters record their sorts, so every sort runs
// on the cache-agnostic bitonic network whatever Config.SortBackend says.
//
// rounds > 0 runs exactly that many rounds: the access pattern is a fixed
// function of (n, m, rounds) — full shape-only obliviousness — but too few
// rounds returns an under-merged partition (labels are still component-
// consistent prefixes: every label names a vertex of the own component).
// rounds == 0 runs to convergence, revealing only the round count (O(log n)
// in practice). The vertex count has no cap beyond the table bounds.
func Components(cfg Config, edges Table, rounds int) (Table, *Report, error) {
	e, done := oneShot(cfg)
	defer done()
	out, rep, _, err := runGraph(e, edges, GraphOpComponents, rounds)
	return out, rep, err
}

// MSF obliviously computes the minimum spanning forest of the undirected
// weighted graph carried by a width-2 edge table (Borůvka star-hooking,
// Theorem 5.2(ii)) and returns the chosen edges as a width-2 edge table in
// input-edge order. Ties are broken by edge index, so the forest is unique
// and backend-independent. Each iteration picks every component's minimum
// edge by one conflict-resolved scatter with the edge weight as priority;
// like Components, it sorts on the cache-agnostic bitonic network whatever
// Config.SortBackend says. Requirements: vertices and edges < 2^21,
// weights < 2^20.
func MSF(cfg Config, edges Table) (Table, *Report, error) {
	e, done := oneShot(cfg)
	defer done()
	out, rep, _, err := runGraph(e, edges, GraphOpMSF, 0)
	return out, rep, err
}

// checkMSF enforces the bounds of the MSF selection's packed words
// (graph.MinimumSpanningForestOblivious) for both MSF entry points: fewer
// than 2^21 vertices and edges, weights below 2^20.
func checkMSF(n int, edges []WeightedEdge) error {
	if n >= 1<<21 || len(edges) >= 1<<21 {
		return fmt.Errorf("oblivmc: graph too large (%d vertices, %d edges, max 2^21-1)", n, len(edges))
	}
	for i, ed := range edges {
		if ed.W >= 1<<20 {
			return fmt.Errorf("oblivmc: edge %d weight %d exceeds 2^20-1", i, ed.W)
		}
	}
	return nil
}

// PageRankScale is the fixed-point unit of PageRank ranks: a rank of
// PageRankScale is the stationary weight 1.0.
const PageRankScale = graph.PageRankScale

// PageRank runs iters rounds of PageRank over the directed graph carried by
// a width-2 edge table (key column 0 = source, column 1 = destination;
// weights are ignored) and returns a width-1 table mapping every vertex
// 0..n-1 to its rank in PageRankScale fixed point. The arithmetic is exact
// integer fixed point: share(u) = (rank(u)·85/100)/outdeg(u), next rank(v)
// = PageRankScale·15/100 + Σ incoming shares. Vertices with no out-edges
// drop their mass, so ranks sum to slightly less than n·PageRankScale on
// graphs with sinks. It runs graph.PageRankOblivious: the edges are grouped
// once, by recorded sorts, an iteration sorts nothing, and the division by
// a secret out-degree takes fixed time. Like Components, it sorts on the
// cache-agnostic bitonic network whatever Config.SortBackend says.
func PageRank(cfg Config, edges Table, iters int) (Table, *Report, error) {
	e, done := oneShot(cfg)
	defer done()
	out, rep, _, err := runGraph(e, edges, GraphOpPageRank, iters)
	return out, rep, err
}
