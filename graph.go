package oblivmc

import (
	"fmt"

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
	// GraphOpPageRank — the relational PageRank iterated aggregate
	// (PageRank).
	GraphOpPageRank
)

func (op GraphOp) planKind() plan.GraphKind {
	switch op {
	case GraphOpMSF:
		return plan.GraphMSF
	case GraphOpPageRank:
		return plan.GraphPageRank
	}
	return plan.GraphCC
}

// plan is the operator's sort-pass accounting at the public shape.
func (op GraphOp) plan(n, m, rounds int) plan.GraphPlan {
	return plan.BuildGraph(plan.GraphShape{Kind: op.planKind(), N: n, M: m, Rounds: rounds})
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
// PageRank and Session.RunGraphCtx all land here, as the relational
// surfaces land in runQuery. It converts the edge table once, derives the
// public shape, and runs op in e's environment. The returned plan is the
// operator's accounting at that shape, for the caller's bookkeeping.
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
	var (
		out Table
		rep *Report
	)
	switch op {
	case GraphOpComponents:
		out, rep, err = components(e, n, el, rounds)
	case GraphOpMSF:
		out, rep, err = msf(e, n, el)
	case GraphOpPageRank:
		out, rep, err = pageRank(e, n, el, rounds)
	default:
		err = fmt.Errorf("oblivmc: unknown graph operator %d", op)
	}
	if err != nil {
		return fail(err)
	}
	return out, rep, op.plan(n, len(el), rounds), nil
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

func components(e exec, n int, el []WeightedEdge, rounds int) (Table, *Report, error) {
	if rounds < 0 {
		return Table{}, nil, fmt.Errorf("oblivmc: negative round count %d", rounds)
	}
	pairs := make([][2]int, len(el))
	for i, ed := range el {
		pairs[i] = [2]int{ed.U, ed.V}
	}
	var labels []int
	rep, err := e.run(func(c *forkjoin.Ctx, sp *mem.Space) {
		labels, _ = graph.ConnectedComponentsMinHook(c, sp, n, pairs, rounds, e.graphParams())
	})
	if err != nil {
		return Table{}, nil, err
	}
	recs := make([]relops.Record, n)
	for v, l := range labels {
		recs[v] = relops.Record{Key: uint64(v), Val: uint64(l)}
	}
	return Table{recs: recs, width: 1}, rep, nil
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

func msf(e exec, n int, el []WeightedEdge) (Table, *Report, error) {
	if err := checkMSF(n, el); err != nil {
		return Table{}, nil, err
	}
	var chosen []int
	rep, err := e.run(func(c *forkjoin.Ctx, sp *mem.Space) {
		chosen = graph.MinimumSpanningForestOblivious(c, sp, n, el, e.graphParams())
	})
	if err != nil {
		return Table{}, nil, err
	}
	if len(chosen) == 0 {
		// A forest with no edges (self-loop-only input): an empty edge table.
		return Table{width: 2}, rep, nil
	}
	recs := make([]relops.Record, len(chosen))
	for i, ci := range chosen {
		recs[i] = relops.Record{Key: uint64(el[ci].U), Key2: uint64(el[ci].V), Val: el[ci].W}
	}
	return Table{recs: recs, width: 2}, rep, nil
}

// PageRankScale is the fixed-point unit of PageRank ranks: a rank of
// PageRankScale is the stationary weight 1.0.
const PageRankScale uint64 = 1 << 20

// pageRankDampNum/Den encode the standard 0.85 damping factor as an exact
// integer ratio.
const (
	pageRankDampNum = 85
	pageRankDampDen = 100
)

// PageRank runs iters rounds of the PageRank iterated aggregate over the
// directed graph carried by a width-2 edge table (key column 0 = source,
// column 1 = destination; weights are ignored) and returns a width-1 table
// mapping every vertex 0..n-1 to its rank in PageRankScale fixed point.
//
// The iteration is built from the relational operators, exercising the
// join/group pipeline as a graph workload: each round joins the per-vertex
// share table against the edge table on the source column (JoinAllRows with
// the exact public capacity m — every edge matches exactly one share row),
// re-keys the matches by destination, and folds them with a grouped sum
// (GroupByCols/AggSum) over a zero-sentinel row per vertex, so the output
// always has exactly n rows in vertex order. All arithmetic is integer
// fixed point: share(u) = (rank(u)·85/100)/outdeg(u), next rank(v) =
// PageRankScale·15/100 + Σ incoming shares. Vertices with no out-edges
// drop their mass (the simple "dangling mass lost" variant), so ranks sum
// to slightly less than n·PageRankScale on graphs with sinks.
//
// Every constituent operator runs in one environment under cfg (backend,
// mode, workers) — the pool, space, arena and sorter of one throwaway
// Session — so the returned Report is exactly a Session's RunGraphCtx
// Report: the counter-sum over all 1+2·iters operator runs, with a combined
// trace fingerprint (nil outside ModeMetered).
func PageRank(cfg Config, edges Table, iters int) (Table, *Report, error) {
	e, done := oneShot(cfg)
	defer done()
	out, rep, _, err := runGraph(e, edges, GraphOpPageRank, iters)
	return out, rep, err
}

// pageRank runs the 1+2·iters constituent operators in e's one environment
// (pool, space, arena and sorter), over records it builds itself (vertex
// ids and edge endpoints, all below n ≤ MaxRows), so its intermediate
// tables wrap them directly.
func pageRank(e exec, n int, el []WeightedEdge, iters int) (Table, *Report, error) {
	if iters < 1 {
		return Table{}, nil, fmt.Errorf("oblivmc: PageRank needs at least 1 iteration, got %d", iters)
	}
	m := len(el)
	if int64(n+m) > relops.MaxRows {
		return Table{}, nil, fmt.Errorf("%w (%d vertices + %d edges)", ErrTooManyRows, n, m)
	}
	var total *Report
	groupSum := func(recs []relops.Record) ([]relops.Record, error) {
		out, rep, _, err := runQuery(e, Table{recs: recs, width: 1}, Query{GroupBy: AggSum})
		if err != nil {
			return nil, err
		}
		mergeReport(&total, rep)
		return out.recs, nil
	}

	// Out-degrees: one grouped count over a unit row per edge source plus a
	// zero sentinel per vertex, so every vertex appears and the key-sorted
	// output is exactly vertex order.
	degRecs := make([]relops.Record, 0, n+m)
	for v := 0; v < n; v++ {
		degRecs = append(degRecs, relops.Record{Key: uint64(v), Val: 0})
	}
	for _, ed := range el {
		degRecs = append(degRecs, relops.Record{Key: uint64(ed.U), Val: 1})
	}
	degOut, err := groupSum(degRecs)
	if err != nil {
		return Table{}, nil, err
	}
	deg := make([]uint64, n)
	for _, r := range degOut {
		deg[r.Key] = r.Val
	}

	edgeRecs := make([]relops.Record, m)
	for i, ed := range el {
		edgeRecs[i] = relops.Record{Key: uint64(ed.U), Val: uint64(ed.V)}
	}
	edgeTbl := Table{recs: edgeRecs, width: 1}

	ranks := make([]uint64, n)
	for v := range ranks {
		ranks[v] = PageRankScale
	}
	base := PageRankScale * (pageRankDampDen - pageRankDampNum) / pageRankDampDen

	for it := 0; it < iters; it++ {
		shareRecs := make([]relops.Record, n)
		for v := 0; v < n; v++ {
			s := uint64(0)
			if deg[v] > 0 {
				s = ranks[v] * pageRankDampNum / pageRankDampDen / deg[v]
			}
			shareRecs[v] = relops.Record{Key: uint64(v), Val: s}
		}
		shareTbl := Table{recs: shareRecs, width: 1}
		// Every edge row matches exactly one share row (shares cover all
		// vertices, with distinct keys), so m is the exact public capacity.
		joined, rep, err := joinAllRows(e, shareTbl, edgeTbl, m)
		if err != nil {
			return Table{}, nil, err
		}
		mergeReport(&total, rep)

		contribRecs := make([]relops.Record, 0, n+m)
		for v := 0; v < n; v++ {
			contribRecs = append(contribRecs, relops.Record{Key: uint64(v), Val: 0})
		}
		for _, j := range joined {
			contribRecs = append(contribRecs, relops.Record{Key: j.RightVal, Val: j.LeftVal})
		}
		summed, err := groupSum(contribRecs)
		if err != nil {
			return Table{}, nil, err
		}
		for _, r := range summed {
			ranks[r.Key] = base + r.Val
		}
	}

	outRecs := make([]relops.Record, n)
	for v := 0; v < n; v++ {
		outRecs[v] = relops.Record{Key: uint64(v), Val: ranks[v]}
	}
	return Table{recs: outRecs, width: 1}, total, nil
}

// mergeReport folds one operator run's report into an accumulated total:
// counters and spans add (the composition is sequential), and the trace
// fingerprints fold with an order-sensitive hash combine, so two metered
// compositions match iff every constituent fingerprint matches in order.
func mergeReport(total **Report, r *Report) {
	if r == nil {
		return
	}
	if *total == nil {
		cp := *r
		*total = &cp
		return
	}
	t := *total
	t.Work += r.Work
	t.Span += r.Span
	t.MemOps += r.MemOps
	t.Reads += r.Reads
	t.Writes += r.Writes
	t.Forks += r.Forks
	t.CacheMisses += r.CacheMisses
	t.CacheAccesses += r.CacheAccesses
	t.TraceFingerprint.Hash = t.TraceFingerprint.Hash*0x100000001b3 ^ r.TraceFingerprint.Hash
	t.TraceFingerprint.Count += r.TraceFingerprint.Count
}
