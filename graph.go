package oblivmc

import (
	"fmt"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/graph"
	"oblivmc/internal/mem"
	"oblivmc/internal/plan"
	"oblivmc/internal/pram"
	"oblivmc/internal/relops"
)

// GraphOp selects the workload for GraphExplain.
type GraphOp int

const (
	// GraphOpComponents — min-hook connected components (Components).
	GraphOpComponents GraphOp = iota
	// GraphOpComponentsAS — Awerbuch–Shiloach connected components
	// (ConnectedComponents).
	GraphOpComponentsAS
	// GraphOpMSF — Borůvka minimum spanning forest (MSF /
	// MinimumSpanningForest).
	GraphOpMSF
	// GraphOpPageRank — the relational PageRank iterated aggregate
	// (PageRank).
	GraphOpPageRank
)

func (op GraphOp) planKind() plan.GraphKind {
	switch op {
	case GraphOpComponentsAS:
		return plan.GraphCCAS
	case GraphOpMSF:
		return plan.GraphMSF
	case GraphOpPageRank:
		return plan.GraphPageRank
	}
	return plan.GraphCC
}

// GraphExplain renders the sort-pass accounting of a graph operator at the
// public shape (n vertices, m edges, rounds — the fixed round count for
// Components, the iteration count for PageRank, ignored otherwise), e.g.
//
//	cc-minhook(n=65536, m=1048576): gather → scatter-min → jump → jump
//	[9 sorts/round × 4 rounds = 36 sorts]
//
// Like Explain for relational queries, the output is a pure function of
// the shape — the same accounting the metered-run tests pin.
func GraphExplain(op GraphOp, n, m, rounds int) string {
	return plan.BuildGraph(plan.GraphShape{Kind: op.planKind(), N: n, M: m, Rounds: rounds}).String()
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

// GraphSorts returns the operator's total sort-pass count at the public
// shape: exact for fixed-round workloads (Components with rounds > 0,
// PageRank, the AS components' fixed iteration bound), the worst-case
// bound for MSF's revealed early-exit loop, and -1 for a convergence loop
// with no a-priori bound (Components with rounds == 0).
func GraphSorts(op GraphOp, n, m, rounds int) int {
	return plan.BuildGraph(plan.GraphShape{Kind: op.planKind(), N: n, M: m, Rounds: rounds}).TotalSorts()
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

// Edges converts a width-2 table back to a weighted edge list (the inverse
// of NewEdgeTable). Tables of any other width return ErrBadWidth.
func (t Table) Edges() ([]WeightedEdge, error) {
	if t.Width() != 2 {
		return nil, fmt.Errorf("%w (edge tables have 2 key columns, this table has %d)", ErrBadWidth, t.Width())
	}
	out := make([]WeightedEdge, t.Len())
	for i, r := range t.WideRows() {
		out[i] = WeightedEdge{U: int(r.Keys[0]), V: int(r.Keys[1]), W: r.Val}
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

// Components obliviously labels the connected components of the undirected
// graph carried by a width-2 edge table and returns a width-1 table mapping
// every vertex 0..n-1 (n = one past the largest endpoint) to the minimum
// vertex id of its component. It runs the min-hook labeling
// (graph.ConnectedComponentsMinHook): each round is one batched endpoint
// gather, one min-combining conflict-resolved scatter, and two pointer
// jumps, every sort on the configured backend (Config.SortBackend).
//
// rounds > 0 runs exactly that many rounds: the access pattern is a fixed
// function of (n, m, rounds) — full shape-only obliviousness — but too few
// rounds returns an under-merged partition (labels are still component-
// consistent prefixes: every label names a vertex of the own component).
// rounds == 0 runs to convergence, revealing only the round count (O(log n)
// in practice).
//
// Requirement: n <= 2^21 (labels double as scatter priorities).
func Components(cfg Config, edges Table, rounds int) (Table, *Report, error) {
	el, err := edges.Edges()
	if err != nil {
		return Table{}, nil, err
	}
	if len(el) == 0 {
		return Table{}, nil, ErrEmptyInput
	}
	if rounds < 0 {
		return Table{}, nil, fmt.Errorf("oblivmc: negative round count %d", rounds)
	}
	n := graphShape(el)
	if n > pram.MaxPrio {
		return Table{}, nil, fmt.Errorf("oblivmc: graph has %d vertices, max %d", n, pram.MaxPrio)
	}
	pairs := make([][2]int, len(el))
	for i, e := range el {
		pairs[i] = [2]int{e.U, e.V}
	}
	var labels []int
	rep, err := run(cfg, func(c *forkjoin.Ctx, sp *mem.Space) {
		labels, _ = graph.ConnectedComponentsMinHook(c, sp, n, pairs, rounds, cfg.graphParams())
	})
	if err != nil {
		return Table{}, nil, err
	}
	rows := make([]Row, n)
	for v, l := range labels {
		rows[v] = Row{Key: uint64(v), Val: uint64(l)}
	}
	out, err := NewTable(rows)
	if err != nil {
		return Table{}, nil, err
	}
	return out, rep, nil
}

// MSF obliviously computes the minimum spanning forest of the undirected
// weighted graph carried by a width-2 edge table (Borůvka star-hooking,
// Theorem 5.2(ii)) and returns the chosen edges as a width-2 edge table in
// input-edge order. Ties are broken by edge index, so the forest is unique
// and backend-independent. Every sort runs on the configured backend
// (Config.SortBackend). Requirements: vertices and edges < 2^21, weights
// < 2^20.
func MSF(cfg Config, edges Table) (Table, *Report, error) {
	el, err := edges.Edges()
	if err != nil {
		return Table{}, nil, err
	}
	if len(el) == 0 {
		return Table{}, nil, ErrEmptyInput
	}
	n := graphShape(el)
	if n >= 1<<21 || len(el) >= 1<<21 {
		return Table{}, nil, fmt.Errorf("oblivmc: graph too large (%d vertices, %d edges, max 2^21-1)", n, len(el))
	}
	ge := make([]graph.WEdge, len(el))
	for i, e := range el {
		if e.W >= 1<<20 {
			return Table{}, nil, fmt.Errorf("oblivmc: edge %d weight %d exceeds 2^20-1", i, e.W)
		}
		ge[i] = graph.WEdge{U: e.U, V: e.V, W: e.W}
	}
	var chosen []int
	rep, err := run(cfg, func(c *forkjoin.Ctx, sp *mem.Space) {
		chosen = graph.MinimumSpanningForestOblivious(c, sp, n, ge, cfg.graphParams())
	})
	if err != nil {
		return Table{}, nil, err
	}
	rows := make([]WideRow, len(chosen))
	for i, e := range chosen {
		rows[i] = WideRow{Keys: []uint64{uint64(el[e].U), uint64(el[e].V)}, Val: el[e].W}
	}
	if len(rows) == 0 {
		// A forest with no edges (self-loop-only input): no Table to build.
		return Table{}, rep, nil
	}
	out, err := NewWideTable(rows)
	if err != nil {
		return Table{}, nil, err
	}
	return out, rep, nil
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
// Every constituent operator runs under cfg (backend, mode, workers); the
// returned Report is the counter-sum over all 1+2·iters operator runs, with
// a combined trace fingerprint (nil outside ModeMetered).
func PageRank(cfg Config, edges Table, iters int) (Table, *Report, error) {
	el, err := edges.Edges()
	if err != nil {
		return Table{}, nil, err
	}
	if len(el) == 0 {
		return Table{}, nil, ErrEmptyInput
	}
	if iters < 1 {
		return Table{}, nil, fmt.Errorf("oblivmc: PageRank needs at least 1 iteration, got %d", iters)
	}
	n := graphShape(el)
	m := len(el)
	if int64(n+m) > relops.MaxRows {
		return Table{}, nil, fmt.Errorf("%w (%d vertices + %d edges)", ErrTooManyRows, n, m)
	}

	var total *Report

	// Out-degrees: one grouped count over a unit row per edge source plus a
	// zero sentinel per vertex, so every vertex appears and the key-sorted
	// output is exactly vertex order.
	degRows := make([]Row, 0, n+m)
	for v := 0; v < n; v++ {
		degRows = append(degRows, Row{Key: uint64(v), Val: 0})
	}
	for _, e := range el {
		degRows = append(degRows, Row{Key: uint64(e.U), Val: 1})
	}
	degTbl, err := NewTable(degRows)
	if err != nil {
		return Table{}, nil, err
	}
	degOut, rep, err := GroupByCols(cfg, degTbl, AggSum)
	if err != nil {
		return Table{}, nil, err
	}
	mergeReport(&total, rep)
	deg := make([]uint64, n)
	for _, r := range degOut.Rows() {
		deg[r.Key] = r.Val
	}

	edgeRows := make([]Row, m)
	for i, e := range el {
		edgeRows[i] = Row{Key: uint64(e.U), Val: uint64(e.V)}
	}
	edgeTbl, err := NewTable(edgeRows)
	if err != nil {
		return Table{}, nil, err
	}

	ranks := make([]uint64, n)
	for v := range ranks {
		ranks[v] = PageRankScale
	}
	base := PageRankScale * (pageRankDampDen - pageRankDampNum) / pageRankDampDen

	for it := 0; it < iters; it++ {
		shareRows := make([]Row, n)
		for v := 0; v < n; v++ {
			s := uint64(0)
			if deg[v] > 0 {
				s = ranks[v] * pageRankDampNum / pageRankDampDen / deg[v]
			}
			shareRows[v] = Row{Key: uint64(v), Val: s}
		}
		shareTbl, err := NewTable(shareRows)
		if err != nil {
			return Table{}, nil, err
		}
		// Every edge row matches exactly one share row (shares cover all
		// vertices, with distinct keys), so m is the exact public capacity.
		joined, rep, err := JoinAllRows(cfg, shareTbl, edgeTbl, m)
		if err != nil {
			return Table{}, nil, err
		}
		mergeReport(&total, rep)

		contribRows := make([]Row, 0, n+m)
		for v := 0; v < n; v++ {
			contribRows = append(contribRows, Row{Key: uint64(v), Val: 0})
		}
		for _, j := range joined {
			contribRows = append(contribRows, Row{Key: j.RightVal, Val: j.LeftVal})
		}
		contribTbl, err := NewTable(contribRows)
		if err != nil {
			return Table{}, nil, err
		}
		summed, rep, err := GroupByCols(cfg, contribTbl, AggSum)
		if err != nil {
			return Table{}, nil, err
		}
		mergeReport(&total, rep)
		for _, r := range summed.Rows() {
			ranks[r.Key] = base + r.Val
		}
	}

	outRows := make([]Row, n)
	for v := 0; v < n; v++ {
		outRows[v] = Row{Key: uint64(v), Val: ranks[v]}
	}
	out, err := NewTable(outRows)
	if err != nil {
		return Table{}, nil, err
	}
	return out, total, nil
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
