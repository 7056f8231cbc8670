package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"oblivmc"
	"oblivmc/client"
)

// ErrBadSpec is returned for a malformed query spec (unknown table names
// map to ErrNoSuchTable instead).
var ErrBadSpec = errors.New("serve: bad query spec")

// The wire types are the client package's: one declaration serves both
// ends of the HTTP surface, so the two cannot drift (the field
// documentation lives there). The whole spec is public request data — it
// is what the result cache keys on, alongside the versions of the tables
// it references.
type (
	QuerySpec  = client.Spec
	JoinSpec   = client.Join
	FilterSpec = client.Filter
)

// compiled is one spec resolved against the registry — either kind, so
// ExecuteCtx and ExplainSpec are one path each.
type compiled struct {
	// key is the canonical cache key. It embeds every referenced table as
	// name@version, so re-loads structurally invalidate dependent entries.
	key string
	// run executes the spec on a checked-out lane's session.
	run func(ctx context.Context, sess *oblivmc.Session) (oblivmc.Table, oblivmc.QueryStats, error)
	// explain renders the plan run would execute, without running it.
	explain func() (string, error)
}

// compile resolves s against the registry.
func compile(s QuerySpec, reg *Registry) (compiled, error) {
	if s.Graph != "" {
		return compileGraph(s, reg)
	}
	tab, q, key, err := compileQuery(s, reg)
	if err != nil {
		return compiled{}, err
	}
	return compiled{
		key: key,
		run: func(ctx context.Context, sess *oblivmc.Session) (oblivmc.Table, oblivmc.QueryStats, error) {
			return sess.RunQueryCtx(ctx, tab, q)
		},
		explain: func() (string, error) { return oblivmc.ExplainTable(tab, q) },
	}, nil
}

// graphOps maps the wire names to the public graph operators.
var graphOps = map[string]oblivmc.GraphOp{
	"cc":       oblivmc.GraphOpComponents,
	"msf":      oblivmc.GraphOpMSF,
	"pagerank": oblivmc.GraphOpPageRank,
}

// compileGraph resolves a graph spec: the operator runs over the named
// edge table on the lane's session, like any query. The relational clauses
// must be absent. The keyed round parameter is normalised per operator —
// "msf" ignores it and "pagerank" defaults it — so requests that run the
// same computation share one cache entry.
func compileGraph(s QuerySpec, reg *Registry) (compiled, error) {
	op, ok := graphOps[s.Graph]
	if !ok {
		return compiled{}, fmt.Errorf("%w: unknown graph op %q (cc, msf, pagerank)", ErrBadSpec, s.Graph)
	}
	if s.Join != nil || s.Filter != nil || s.Distinct || s.GroupBy != "" ||
		s.TopK != 0 || s.KeyOrderOut {
		return compiled{}, fmt.Errorf("%w: graph %q excludes the relational clauses", ErrBadSpec, s.Graph)
	}
	if s.GraphRounds < 0 {
		return compiled{}, fmt.Errorf("%w: negative graph_rounds", ErrBadSpec)
	}
	if s.Table == "" {
		return compiled{}, fmt.Errorf("%w: missing table", ErrBadSpec)
	}
	tab, ver, err := reg.Get(s.Table)
	if err != nil {
		return compiled{}, err
	}
	rounds := s.GraphRounds
	switch {
	case op == oblivmc.GraphOpMSF:
		rounds = 0
	case op == oblivmc.GraphOpPageRank && rounds == 0:
		rounds = 5
	}
	return compiled{
		key: fmt.Sprintf("t=%s@%d|graph=%s|r=%d", s.Table, ver, s.Graph, rounds),
		run: func(ctx context.Context, sess *oblivmc.Session) (oblivmc.Table, oblivmc.QueryStats, error) {
			return sess.RunGraphCtx(ctx, tab, op, rounds)
		},
		explain: func() (string, error) { return oblivmc.GraphExplainTable(op, tab, rounds) },
	}, nil
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

// compileQuery resolves a relational spec into a concrete (table, query)
// pair plus the canonical cache key.
func compileQuery(s QuerySpec, reg *Registry) (oblivmc.Table, oblivmc.Query, string, error) {
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
