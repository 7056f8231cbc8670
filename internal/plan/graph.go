package plan

import "fmt"

// Sort-pass costs of the PRAM-layer primitives the graph operators are
// assembled from. Both are one send-receive against the memory cells,
// which are already in address order, so neither sorts the union: a
// gather sorts its requests by address, merges them with the cells and
// un-merges, then sorts them back to request order (2 sorts); a
// conflict-resolved scatter pays one address-keyed request sort, after
// which requests and cells are both in address order and the cell rewrite
// is a merge and an un-merge with no sort at all (1 sort). Merges are not
// sorts and are not counted.
const (
	gatherSorts  = 2
	scatterSorts = 1
	jumpSorts    = gatherSorts // one pointer jump = one D[D[w]] gather
	starsSorts   = gatherSorts + scatterSorts + gatherSorts
)

// Per-round / per-iteration sort counts of the graph operators, derived
// from the primitive costs above (asserted against metered runs by the
// package tests):
//
//	min-hook CC round  = endpoint gather + min-scatter + 2 jumps
//	MSF iteration      = 2 endpoint gathers + stars + selection sort
//	                     + star-root gather + 2 scatters + D[D] gather + jump
//	PageRank iteration = join-all (3 staged sorts) + grouped sum (2)
const (
	ccMinHookRoundSorts = gatherSorts + scatterSorts + 2*jumpSorts
	msfIterSorts        = 2*gatherSorts + starsSorts + 1 + gatherSorts +
		2*scatterSorts + gatherSorts + jumpSorts
	pageRankIterSorts = joinSorts + 2
	pageRankBaseSorts = 2 // the one-off out-degree grouped count
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
	// GraphPageRank — the relational PageRank iterated aggregate
	// (join-all + grouped sum per iteration).
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
	// BaseSorts counts the sorts outside the iteration (PageRank's
	// out-degree pass).
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

// String renders the per-round pass structure and the sort accounting in
// the style of Plan.String, e.g.
//
//	cc-minhook(n=65536, m=1048576): gather → scatter-min → jump → jump
//	[7 sorts/round × 4 rounds = 28 sorts]
func (p GraphPlan) String() string {
	var passes string
	switch p.Kind {
	case GraphCC:
		passes = "gather → scatter-min → jump → jump"
	case GraphMSF:
		passes = "gather² → stars → sort(sel) → gather → scatter² → gather → jump"
	case GraphPageRank:
		passes = "join-all → group-sum"
	default:
		passes = "?"
	}
	head := fmt.Sprintf("%s(n=%d, m=%d): %s", p.Kind, p.N, p.M, passes)
	base := ""
	if p.BaseSorts > 0 {
		base = fmt.Sprintf("%d + ", p.BaseSorts)
	}
	switch {
	case p.Fixed:
		return fmt.Sprintf("%s [%s%d sorts/round × %d rounds = %d sorts]",
			head, base, p.SortsPerRound, p.Rounds, p.TotalSorts())
	case p.Rounds > 0:
		return fmt.Sprintf("%s [%s%d sorts/round × ≤%d rounds, count revealed]",
			head, base, p.SortsPerRound, p.Rounds)
	default:
		return fmt.Sprintf("%s [%s%d sorts/round, rounds revealed]",
			head, base, p.SortsPerRound)
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
		if s.Rounds > 0 {
			p.Rounds = s.Rounds
			p.Fixed = true
		}
	case GraphMSF:
		p.SortsPerRound = msfIterSorts
		b := log2ceil(s.N) + 2
		p.Rounds = b * b // revealed early-exit bound, not a fixed count
	case GraphPageRank:
		p.SortsPerRound = pageRankIterSorts
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
