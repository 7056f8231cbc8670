package serve

import (
	"errors"
	"fmt"
	"strings"

	"oblivmc"
)

// ErrBadSpec is returned for a malformed query spec (unknown table names
// map to ErrNoSuchTable instead).
var ErrBadSpec = errors.New("serve: bad query spec")

// FilterSpec is the declarative filter clause. Col selects the compared
// column: a key column by index, or the value column when Col == -1. A
// key-column filter is declared key-only to the planner (it drops whole
// key groups), which is what lets it push below Distinct/GroupBy.
type FilterSpec struct {
	Col   int    `json:"col"`
	Op    string `json:"op"` // eq, ne, lt, le, gt, ge
	Value uint64 `json:"value"`
}

// JoinSpec is the declarative join clause: the named registered relation
// becomes the query's join-left side, MaxOut its public output capacity.
// JoinCap may name the "auto" capacity mode instead of MaxOut: the engine's
// advisor sizes the output at the worst-case match bound (which cannot
// overflow), revealing that bound as public shape. Setting both is an
// error.
type JoinSpec struct {
	Table   string `json:"table"`
	MaxOut  int    `json:"max_out,omitempty"`
	JoinCap string `json:"join_cap,omitempty"`
}

// QuerySpec is the wire form of one query: a declarative mirror of
// oblivmc.Query with relation references by registered name. The whole
// spec is public request data — it is what the result cache keys on
// (canonicalKey), alongside the versions of the tables it references.
type QuerySpec struct {
	// Table names the queried relation.
	Table string `json:"table"`
	// Join, Filter, Distinct, GroupBy, TopK mirror oblivmc.Query. GroupBy
	// is the aggregation name: sum, count, min, max, avg, var.
	Join     *JoinSpec   `json:"join,omitempty"`
	Filter   *FilterSpec `json:"filter,omitempty"`
	Distinct bool        `json:"distinct,omitempty"`
	GroupBy  string      `json:"group_by,omitempty"`
	TopK     int         `json:"top_k,omitempty"`
	// KeyOrderOut materializes the result in key order with the OrderKeys
	// token (the cross-query sort-skipping seam; see oblivmc.Query).
	KeyOrderOut bool `json:"key_order_out,omitempty"`
	// As, when set, stores the result in the registry under this name
	// (replacing any existing binding — its version bumps). Not part of
	// the cache key: it names the result, it does not change it.
	As string `json:"as,omitempty"`
	// Graph runs a graph operator over the named width-2 edge table
	// instead of the relational pipeline: "cc" (min-hook connected
	// components), "msf" (minimum spanning forest), or "pagerank".
	// Mutually exclusive with the relational clauses (Join, Filter,
	// Distinct, GroupBy, TopK, KeyOrderOut); As still stores
	// the result. Like every relational field, the pair (Graph,
	// GraphRounds) is public request shape and part of the cache key.
	Graph string `json:"graph,omitempty"`
	// GraphRounds is the workload's round parameter: for "cc" a positive
	// value runs exactly that many fixed rounds (0 = run to convergence);
	// for "pagerank" the iteration count (0 = 5); "msf" ignores it.
	GraphRounds int `json:"graph_rounds,omitempty"`
}

// graphOps maps the wire names to the public graph operators.
var graphOps = map[string]oblivmc.GraphOp{
	"cc":       oblivmc.GraphOpComponents,
	"msf":      oblivmc.GraphOpMSF,
	"pagerank": oblivmc.GraphOpPageRank,
}

// compileGraph resolves a graph spec against the registry: the edge
// table, the operator, the resolved round parameter, and the canonical
// cache key. The relational clauses must be absent.
func (s QuerySpec) compileGraph(reg *Registry) (oblivmc.Table, oblivmc.GraphOp, int, string, error) {
	fail := func(err error) (oblivmc.Table, oblivmc.GraphOp, int, string, error) {
		return oblivmc.Table{}, 0, 0, "", err
	}
	op, ok := graphOps[s.Graph]
	if !ok {
		return fail(fmt.Errorf("%w: unknown graph op %q (cc, msf, pagerank)", ErrBadSpec, s.Graph))
	}
	if s.Join != nil || s.Filter != nil || s.Distinct || s.GroupBy != "" ||
		s.TopK != 0 || s.KeyOrderOut {
		return fail(fmt.Errorf("%w: graph %q excludes the relational clauses", ErrBadSpec, s.Graph))
	}
	if s.GraphRounds < 0 {
		return fail(fmt.Errorf("%w: negative graph_rounds", ErrBadSpec))
	}
	if s.Table == "" {
		return fail(fmt.Errorf("%w: missing table", ErrBadSpec))
	}
	tab, ver, err := reg.Get(s.Table)
	if err != nil {
		return fail(err)
	}
	rounds := s.GraphRounds
	if op == oblivmc.GraphOpPageRank && rounds == 0 {
		rounds = 5
	}
	key := fmt.Sprintf("t=%s@%d|graph=%s|r=%d", s.Table, ver, s.Graph, rounds)
	return tab, op, rounds, key, nil
}

var aggOf = map[string]oblivmc.Agg{
	"":      oblivmc.AggNone,
	"sum":   oblivmc.AggSum,
	"count": oblivmc.AggCount,
	"min":   oblivmc.AggMin,
	"max":   oblivmc.AggMax,
	"avg":   oblivmc.AggAvg,
	"var":   oblivmc.AggVar,
}

// compileFilter builds the wide-row predicate of f over width w and
// reports whether it is key-only. The predicate runs over every row
// regardless of outcome (the mark pass is oblivious); only its
// declaration — column class and operator, public spec fields — reaches
// the planner.
func compileFilter(f *FilterSpec, w int) (func(oblivmc.WideRow) bool, bool, error) {
	if f == nil {
		return nil, false, nil
	}
	if f.Col < -1 || f.Col >= w {
		return nil, false, fmt.Errorf("%w: filter col %d out of range for width %d (use -1 for the value column)", ErrBadSpec, f.Col, w)
	}
	var cmp func(a, b uint64) bool
	switch f.Op {
	case "eq":
		cmp = func(a, b uint64) bool { return a == b }
	case "ne":
		cmp = func(a, b uint64) bool { return a != b }
	case "lt":
		cmp = func(a, b uint64) bool { return a < b }
	case "le":
		cmp = func(a, b uint64) bool { return a <= b }
	case "gt":
		cmp = func(a, b uint64) bool { return a > b }
	case "ge":
		cmp = func(a, b uint64) bool { return a >= b }
	default:
		return nil, false, fmt.Errorf("%w: unknown filter op %q", ErrBadSpec, f.Op)
	}
	col, val := f.Col, f.Value
	if col == -1 {
		return func(r oblivmc.WideRow) bool { return cmp(r.Val, val) }, false, nil
	}
	return func(r oblivmc.WideRow) bool { return cmp(r.Keys[col], val) }, true, nil
}

// compile resolves s against the registry into a concrete (table, query)
// pair plus the canonical cache key. The key embeds every referenced
// table as name@version, so re-loads structurally invalidate dependent
// entries.
func (s QuerySpec) compile(reg *Registry) (oblivmc.Table, oblivmc.Query, string, error) {
	if s.Table == "" {
		return oblivmc.Table{}, oblivmc.Query{}, "", fmt.Errorf("%w: missing table", ErrBadSpec)
	}
	tab, ver, err := reg.Get(s.Table)
	if err != nil {
		return oblivmc.Table{}, oblivmc.Query{}, "", err
	}
	agg, ok := aggOf[s.GroupBy]
	if !ok {
		return oblivmc.Table{}, oblivmc.Query{}, "", fmt.Errorf("%w: unknown aggregation %q", ErrBadSpec, s.GroupBy)
	}
	if s.TopK < 0 {
		return oblivmc.Table{}, oblivmc.Query{}, "", fmt.Errorf("%w: negative top_k", ErrBadSpec)
	}
	var key strings.Builder
	fmt.Fprintf(&key, "t=%s@%d", s.Table, ver)
	q := oblivmc.Query{
		Distinct:    s.Distinct,
		GroupBy:     agg,
		TopK:        s.TopK,
		KeyOrderOut: s.KeyOrderOut,
	}
	if s.Join != nil {
		left, lver, err := reg.Get(s.Join.Table)
		if err != nil {
			return oblivmc.Table{}, oblivmc.Query{}, "", err
		}
		maxOut := s.Join.MaxOut
		switch s.Join.JoinCap {
		case "":
		case "auto":
			if maxOut != 0 {
				return oblivmc.Table{}, oblivmc.Query{}, "", fmt.Errorf("%w: join_cap \"auto\" and max_out %d are mutually exclusive", ErrBadSpec, maxOut)
			}
			maxOut = oblivmc.JoinCapAuto
		default:
			return oblivmc.Table{}, oblivmc.Query{}, "", fmt.Errorf("%w: unknown join_cap %q (only \"auto\")", ErrBadSpec, s.Join.JoinCap)
		}
		q.Join = &oblivmc.JoinSpec{Left: left, MaxOut: maxOut}
		// The auto sentinel keys as its own token: the resolved capacity
		// depends on the left table's contents, so the version stamp — not
		// the bound — is what keeps cached entries honest.
		fmt.Fprintf(&key, "|j=%s@%d:%d", s.Join.Table, lver, maxOut)
	}
	pred, keyOnly, err := compileFilter(s.Filter, tab.Width())
	if err != nil {
		return oblivmc.Table{}, oblivmc.Query{}, "", err
	}
	if pred != nil {
		q.FilterWide = pred
		q.FilterKeyOnly = keyOnly
		fmt.Fprintf(&key, "|f=%d %s %d", s.Filter.Col, s.Filter.Op, s.Filter.Value)
	}
	fmt.Fprintf(&key, "|d=%t|g=%s|k=%d|o=%t",
		s.Distinct, s.GroupBy, s.TopK, s.KeyOrderOut)
	return tab, q, key.String(), nil
}
