package plan

import "fmt"

// Sort-pass costs of the PRAM-layer primitives the graph operators are
// assembled from. Both are one send-receive against the memory cells,
// which are already in address order, so neither sorts the union: a
// gather record-sorts its requests by address, merges them with the cells
// and un-merges, then un-sorts them back to request order by replaying
// the record (1 sort, 1 replay); a conflict-resolved scatter pays one
// address-keyed request sort, after which requests and cells are both in
// address order and the cell rewrite is a merge and an un-merge with no
// sort at all (1 sort). A gather over static addresses (pram.Gatherer)
// records its sort once, outside the rounds, and replays it every round
// (0 sorts, 1 replay per round). Merges are not sorts and are not
// counted; replays are counted apart from sorts.
const (
	gatherSorts   = 1
	gatherReplays = 1
	scatterSorts  = 1
	jumpSorts     = gatherSorts // one pointer jump = one D[D[w]] gather
	jumpReplays   = gatherReplays
	// The star test reads D[D[w]] and star[D[w]] at the one address list
	// D: one sort, two replays, and the scatter between them.
	starsSorts   = gatherSorts + scatterSorts
	starsReplays = 2 * gatherReplays
)

// Per-round / per-iteration sort and replay counts of the graph operators,
// derived from the primitive costs above (asserted against executed runs
// by the package tests):
//
//	min-hook CC round  = static endpoint gather (replay only) + min-scatter
//	                     + 2 jumps; base: the endpoint gather's sort
//	MSF iteration      = 2 static endpoint gathers (replays only) + stars
//	                     + min-edge scatter + pick scatter + D[D] gather
//	                     + jump; base: the 2 endpoint sorts
//	PageRank iteration = static source gather (replay only) + in-edge sums'
//	                     un-sort; base: the source and destination
//	                     groupings + the gather's sort (the out-degree
//	                     sums' un-sort, outside the iterations, is uncounted)
const (
	ccMinHookRoundSorts   = scatterSorts + 2*jumpSorts
	ccMinHookRoundReplays = gatherReplays + 2*jumpReplays
	ccMinHookBaseSorts    = gatherSorts
	msfIterSorts          = starsSorts + 2*scatterSorts + gatherSorts + jumpSorts
	msfIterReplays        = 2*gatherReplays + starsReplays + gatherReplays + jumpReplays
	msfBaseSorts          = 2 * gatherSorts
	pageRankIterReplays   = gatherReplays + 1
	pageRankBaseSorts     = 2 + gatherSorts
)

// GraphKind enumerates the planned graph workloads.
type GraphKind uint8

const (
	// GraphCC — min-hook connected components (the workload variant: one
	// batched endpoint gather, one min-combining scatter, two jumps per
	// round).
	GraphCC GraphKind = iota
	// GraphMSF — Borůvka star-hooking minimum spanning forest.
	GraphMSF
	// GraphPageRank — PageRank's fixed-point iterated aggregate (a share
	// pass, a static gather, a prefix sum and an un-sort per iteration).
	GraphPageRank
)

// String implements fmt.Stringer.
func (k GraphKind) String() string {
	switch k {
	case GraphCC:
		return "cc-minhook"
	case GraphMSF:
		return "msf"
	case GraphPageRank:
		return "pagerank"
	}
	return fmt.Sprintf("graph(%d)", uint8(k))
}

// GraphShape is the public shape of a graph workload: the vertex and edge
// counts plus the round parameter. Like the relational Shape, it carries
// exactly what the adversary already holds; BuildGraph is a pure function
// of it.
type GraphShape struct {
	Kind GraphKind
	// N, M are the public vertex and edge counts.
	N, M int
	// Rounds is the workload's round parameter: for GraphCC a positive
	// value runs exactly that many rounds (0 = run to convergence,
	// revealing the count); for GraphPageRank it is the iteration count;
	// GraphMSF ignores it (its bound is a function of N).
	Rounds int
}

// GraphPlan is the sort-pass accounting of one graph workload, the
// graph-side analogue of Plan.
type GraphPlan struct {
	Kind GraphKind
	N, M int
	// SortsPerRound is the fixed sort cost of one round/iteration.
	SortsPerRound int
	// ReplaysPerRound counts the un-sorts of one round/iteration: replays
	// of a recorded sort, which are not sorts.
	ReplaysPerRound int
	// BaseSorts counts the sorts outside the iteration (the recorded sorts
	// of the static gathers and of PageRank's edge groupings).
	BaseSorts int
	// Rounds is the round count the totals are computed over: the exact
	// public count when Fixed, else the worst-case bound of a revealed
	// data-dependent loop (0 = unbounded a priori; CC convergence).
	Rounds int
	// Fixed reports whether Rounds is an exact public count — the trace is
	// then a fixed function of (N, M, Rounds) — rather than a revealed
	// run-time quantity.
	Fixed bool
}

// TotalSorts is the total sort-pass count: exact when Fixed, a worst-case
// bound otherwise, and -1 when no a-priori bound exists (a convergence
// loop whose round count is revealed only at run time).
func (p GraphPlan) TotalSorts() int {
	if p.Rounds == 0 && !p.Fixed {
		return -1
	}
	return p.BaseSorts + p.SortsPerRound*p.Rounds
}

// TotalReplays is the total un-sort count, exact, bounded or -1 like
// TotalSorts.
func (p GraphPlan) TotalReplays() int {
	if p.Rounds == 0 && !p.Fixed {
		return -1
	}
	return p.ReplaysPerRound * p.Rounds
}

// String renders the per-round pass structure and the sort accounting in
// the style of Plan.String, e.g.
//
//	cc-minhook(n=65536, m=1048576): gather → scatter-min → jump → jump
//	[1 + 3 sorts/round × 4 rounds = 13 sorts, 12 replays]
func (p GraphPlan) String() string {
	var passes string
	switch p.Kind {
	case GraphCC:
		passes = "gather → scatter-min → jump → jump"
	case GraphMSF:
		passes = "gather² → stars → scatter² → gather → jump"
	case GraphPageRank:
		passes = "share → gather → prefix-sum → unsort"
	default:
		passes = "?"
	}
	head := fmt.Sprintf("%s(n=%d, m=%d): %s", p.Kind, p.N, p.M, passes)
	base := ""
	if p.BaseSorts > 0 {
		base = fmt.Sprintf("%d + ", p.BaseSorts)
	}
	replays := ""
	switch {
	case p.ReplaysPerRound == 0:
	case p.Fixed:
		replays = fmt.Sprintf(", %d replays", p.TotalReplays())
	default:
		replays = fmt.Sprintf(", %d replays/round", p.ReplaysPerRound)
	}
	switch {
	case p.Fixed:
		return fmt.Sprintf("%s [%s%d sorts/round × %d rounds = %d sorts%s]",
			head, base, p.SortsPerRound, p.Rounds, p.TotalSorts(), replays)
	case p.Rounds > 0:
		return fmt.Sprintf("%s [%s%d sorts/round%s × ≤%d rounds, count revealed]",
			head, base, p.SortsPerRound, replays, p.Rounds)
	default:
		return fmt.Sprintf("%s [%s%d sorts/round%s, rounds revealed]",
			head, base, p.SortsPerRound, replays)
	}
}

// BuildGraph compiles a graph workload shape into its sort accounting. It
// is a pure function of s, mirroring Build: equal shapes plan identically
// regardless of graph contents.
func BuildGraph(s GraphShape) GraphPlan {
	p := GraphPlan{Kind: s.Kind, N: s.N, M: s.M}
	switch s.Kind {
	case GraphCC:
		p.SortsPerRound = ccMinHookRoundSorts
		p.ReplaysPerRound = ccMinHookRoundReplays
		p.BaseSorts = ccMinHookBaseSorts
		if s.Rounds > 0 {
			p.Rounds = s.Rounds
			p.Fixed = true
		}
	case GraphMSF:
		p.SortsPerRound = msfIterSorts
		p.ReplaysPerRound = msfIterReplays
		p.BaseSorts = msfBaseSorts
		b := log2ceil(s.N) + 2
		p.Rounds = b * b // revealed early-exit bound, not a fixed count
	case GraphPageRank:
		p.ReplaysPerRound = pageRankIterReplays
		p.BaseSorts = pageRankBaseSorts
		p.Rounds = s.Rounds
		p.Fixed = true
	}
	return p
}

// log2ceil returns ⌈log₂ n⌉ (0 for n <= 1).
func log2ceil(n int) int {
	r := 0
	for (1 << r) < n {
		r++
	}
	return r
}
