package oblivmc

import (
	"errors"
	"fmt"

	"oblivmc/internal/bitonic"
	"oblivmc/internal/core"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/plan"
	"oblivmc/internal/relops"
)

// relSorter resolves cfg's relational sort backend to a fresh scheduled
// sorter. The shuffle backend is stateful (its sort counter and scratch
// cache), so it is constructed once, by NewSession, and every run of the
// session — a package-level call's throwaway one included — reaches it as
// exec.srt. Selection — and, for SortAuto, the per-sort size crossover
// inside the shuffle sorter (core.DefaultShuffleCrossover) — is a function
// of public shape only.
func relSorter(cfg Config) obliv.ScheduledSorter {
	switch cfg.SortBackend {
	case SortBitonic:
		return bitonic.CacheAgnostic{}
	case SortShuffle:
		return &core.ShuffleSorter{FixedSeed: shuffleSeed(cfg), Crossover: 2}
	default:
		return &core.ShuffleSorter{FixedSeed: shuffleSeed(cfg)}
	}
}

// shuffleSeed resolves the shuffle backend's seeding mode: nil — a fresh
// crypto/rand secret per sort, the mode the Theorem 3.2 guarantee assumes
// — unless cfg opts into Seed-derived reproducible traces.
func shuffleSeed(cfg Config) *uint64 {
	if !cfg.DeterministicShuffle {
		return nil
	}
	s := cfg.Seed
	return &s
}

// Typed boundary errors of the Table API. They wrap the corresponding
// internal/relops errors, so errors.Is matches across both layers, and
// their messages are derived from the active relops constants so they can
// never drift from the enforced bounds.
var (
	// ErrKeyTooLarge is returned for a row key column >= relops.KeyLimit
	// (the filler sentinel; every value below it is a legal key).
	ErrKeyTooLarge = fmt.Errorf("oblivmc: row key column exceeds max key %d: %w",
		uint64(relops.KeyLimit-1), relops.ErrKeyTooLarge)
	// ErrTooManyRows is returned for a table of more than relops.MaxRows
	// rows.
	ErrTooManyRows = fmt.Errorf("oblivmc: table exceeds %d rows: %w",
		uint64(relops.MaxRows), relops.ErrTooManyRows)
	// ErrBadWidth is returned for a key-column count outside
	// [1, relops.MaxKeyCols] or rows of unequal widths.
	ErrBadWidth = fmt.Errorf("oblivmc: key-column count must be in [1, %d] and uniform: %w",
		relops.MaxKeyCols, relops.ErrBadWidth)
	// ErrBadCapacity is returned for a join output capacity (maxOut)
	// outside [1, relops.MaxRows].
	ErrBadCapacity = fmt.Errorf("oblivmc: join output capacity must be in [1, %d] rows: %w",
		uint64(relops.MaxRows), relops.ErrBadCapacity)
	// ErrJoinOverflow is returned when a join's true match count exceeds
	// the declared public output capacity; the wrapped message carries the
	// count a retry needs.
	ErrJoinOverflow = fmt.Errorf("oblivmc: join match count exceeds the declared output capacity: %w",
		relops.ErrJoinOverflow)
	// ErrCapTooLarge is returned by a JoinCapAuto join whose worst-case
	// bound exceeds relops.MaxRows: no legal capacity can hold the result,
	// so the inputs must shrink rather than the capacity grow.
	ErrCapTooLarge = fmt.Errorf("oblivmc: join match bound exceeds %d rows: %w",
		uint64(relops.MaxRows), relops.ErrCapTooLarge)
)

// JoinCapAuto, passed as a join's maxOut (JoinSpec.MaxOut or JoinAllRows),
// asks the join to size its own output: the worst-case match bound Σ over
// key groups of |left group|·|right group| falls out of the join's own key
// sort (the group multiplicities it computes anyway — no extra pass) and is
// then used as the public capacity, so the join can never overflow and the
// guess-retry loop disappears. The bound becomes public shape exactly like
// a hand-picked maxOut: callers opt into revealing it. It is
// relops.CapAuto, resolved where the multiplicities are in hand.
const JoinCapAuto = relops.CapAuto

// Row is the single-key-column (key, value) view of a Table row: what
// NewTable reads and Rows returns.
type Row struct {
	Key, Val uint64
}

// WideRow is the multi-column (keys..., value) view of a Table row: what
// NewWideTable reads and WideRows returns. Keys holds the key columns in
// significance order (column 0 sorts first); all rows of a table must
// declare the same number of columns.
type WideRow struct {
	Keys []uint64
	Val  uint64
}

// TableOrder is the public "sorted-by" token a Table carries across
// queries — the cross-query planning seam. Tables built by NewTable /
// NewWideTable carry OrderNone; tables returned by RunQuery (and
// Session.RunQuery, and the one-operator functions, which are one-stage
// queries) carry the token of their plan's output order. The
// token is a pure function of the producing query's public shape, never of
// the table contents, so feeding it into the next query's plan (which
// RunQuery does automatically) keeps every trace a function of public
// query shapes only.
type TableOrder int

const (
	// OrderNone — no known order (fresh loads, position-ordered results).
	OrderNone TableOrder = iota
	// OrderKeys — ascending (key tuple, first-occurrence) order: the
	// output of a KeyOrderOut Distinct/GroupBy query. A follow-up query
	// whose first sort is its key sort skips that sort entirely.
	OrderKeys
	// OrderValues — descending value order: the output of a TopK query.
	// No plan needs it (TopK's tournament takes any order), so it saves a
	// follow-up query nothing.
	OrderValues
)

// String implements fmt.Stringer.
func (o TableOrder) String() string {
	switch o {
	case OrderKeys:
		return "keys"
	case OrderValues:
		return "values↓"
	}
	return "none"
}

// planOrderOf maps the public token to the planner's input-order token.
func planOrderOf(o TableOrder) plan.Order {
	switch o {
	case OrderKeys:
		return plan.OrderKeyPos
	case OrderValues:
		return plan.OrderValDesc
	}
	return plan.OrderInput
}

// tableOrderOf maps a plan's output order to the public token. OrderPos
// (original-position order) deliberately maps to OrderNone: reloading
// renumbers positions, so the token would carry no cross-query information.
func tableOrderOf(o plan.Order) TableOrder {
	switch o {
	case plan.OrderKeyPos:
		return OrderKeys
	case plan.OrderValDesc:
		return OrderValues
	}
	return OrderNone
}

// Table is a relation of rows accepted by the oblivious relational
// operators (Filter, Distinct, GroupBy, GroupByCols, Join, TopK,
// RunQuery). Key tuples may repeat. Construct with NewTable (one key
// column) or NewWideTable (up to relops.MaxKeyCols columns); both validate
// the bounds: key columns < relops.KeyLimit and at most relops.MaxRows
// rows. The key-column count is public query shape, like the row count,
// as is the sorted-by token (see TableOrder).
//
// A Table owns an immutable copy of its rows in one form at every width —
// the relational records the engine loads as they are and unloads results
// into (result tables wrap the records the engine produced) — so it never
// aliases the slice it was built from, and Row / WideRow / WeightedEdge are
// views made fresh at the API edge (Rows, WideRows, Edges). Copying a Table
// value shares the records, which is safe because nothing writes them.
type Table struct {
	recs  []relops.Record
	width int
	order TableOrder
}

// Order returns the table's public sorted-by token (OrderNone unless the
// table is a materialized query result carrying one).
func (t Table) Order() TableOrder { return t.order }

// NewTable validates rows and copies them into a width-1 Table (the caller
// keeps ownership of rows). Violations of the bounds return ErrKeyTooLarge /
// ErrTooManyRows (matchable with errors.Is).
func NewTable(rows []Row) (Table, error) {
	if len(rows) == 0 {
		return Table{}, ErrEmptyInput
	}
	if err := relops.CheckShape(int64(len(rows)), 1); err != nil {
		return Table{}, fmt.Errorf("%w (%d rows)", ErrTooManyRows, len(rows))
	}
	recs := make([]relops.Record, len(rows))
	for i, r := range rows {
		if r.Key >= relops.KeyLimit {
			return Table{}, fmt.Errorf("%w (row %d key %d)", ErrKeyTooLarge, i, r.Key)
		}
		recs[i] = relops.Record{Key: r.Key, Val: r.Val}
	}
	return Table{recs: recs, width: 1}, nil
}

// NewWideTable validates rows and copies them into a multi-column Table
// (the caller keeps ownership of rows and of every Keys slice). All rows
// must carry the same number of key columns, between 1 and
// relops.MaxKeyCols; violations return ErrBadWidth / ErrKeyTooLarge /
// ErrTooManyRows (matchable with errors.Is). A one-column wide table is
// identical to the NewTable form.
func NewWideTable(rows []WideRow) (Table, error) {
	if len(rows) == 0 {
		return Table{}, ErrEmptyInput
	}
	w := len(rows[0].Keys)
	if err := relops.CheckShape(int64(len(rows)), w); err != nil {
		if w < 1 || w > relops.MaxKeyCols {
			return Table{}, fmt.Errorf("%w (%d columns)", ErrBadWidth, w)
		}
		return Table{}, fmt.Errorf("%w (%d rows)", ErrTooManyRows, len(rows))
	}
	recs := make([]relops.Record, len(rows))
	for i, r := range rows {
		if len(r.Keys) != w {
			return Table{}, fmt.Errorf("%w (row %d has %d columns, row 0 has %d)", ErrBadWidth, i, len(r.Keys), w)
		}
		for k, key := range r.Keys {
			if key >= relops.KeyLimit {
				return Table{}, fmt.Errorf("%w (row %d column %d key %d)", ErrKeyTooLarge, i, k, key)
			}
		}
		recs[i] = relops.Record{Key: r.Keys[0], Val: r.Val}
		if w > 1 {
			recs[i].Key2 = r.Keys[1]
		}
	}
	return Table{recs: recs, width: w}, nil
}

// Rows returns a fresh single-key view of a width-1 table's rows — the
// caller may keep or modify it. Multi-column tables return nil (a narrow
// view would silently drop key columns) — use WideRows.
func (t Table) Rows() []Row {
	if t.Width() != 1 {
		return nil
	}
	out := make([]Row, len(t.recs))
	for i, r := range t.recs {
		out[i] = Row{Key: r.Key, Val: r.Val}
	}
	return out
}

// WideRows returns a fresh multi-column view of the table's rows at any
// width — the caller may keep or modify it. All Keys slices are cut from
// one backing array (one allocation, not one per row), each capped at its
// own columns.
func (t Table) WideRows() []WideRow {
	w := t.Width()
	keys := make([]uint64, len(t.recs)*w)
	out := make([]WideRow, len(t.recs))
	for i, r := range t.recs {
		k := keys[i*w : (i+1)*w : (i+1)*w]
		for c := range k {
			k[c] = r.Col(c)
		}
		out[i] = WideRow{Keys: k, Val: r.Val}
	}
	return out
}

// Width returns the table's key-column count.
func (t Table) Width() int {
	if t.width == 0 {
		return 1
	}
	return t.width
}

// Len returns the number of rows.
func (t Table) Len() int { return len(t.recs) }

// Agg selects the aggregation of GroupBy / GroupByCols / Query. The zero
// value AggNone is only meaningful inside a Query (it disables the
// group-by stage).
type Agg int

// Aggregations. AggAvg and AggVar aggregate a (sum, count) pair — plus the
// sum of squares for the variance — in one segmented pass: AggAvg yields
// floor(sum/count), AggVar the integer population variance
// floor(E[X²]) - floor(E[X])² clamped at zero.
const (
	AggNone Agg = iota
	AggSum
	AggCount
	AggMin
	AggMax
	AggAvg
	AggVar
)

func (a Agg) kind() (relops.AggKind, error) {
	switch a {
	case AggSum:
		return relops.AggSum, nil
	case AggCount:
		return relops.AggCount, nil
	case AggMin:
		return relops.AggMin, nil
	case AggMax:
		return relops.AggMax, nil
	case AggAvg:
		return relops.AggAvg, nil
	case AggVar:
		return relops.AggVar, nil
	default:
		return 0, fmt.Errorf("oblivmc: invalid aggregation %d", a)
	}
}

// tableOf is the surviving records of r as a table of the relation's width
// (harness operation, outside the adversary's view).
func tableOf(r relops.Rel) Table {
	return Table{recs: relops.Unload(r), width: r.W}
}

// errWideFilter rejects the narrow row-predicate surfaces on multi-column
// tables, pointing at the wide forms.
func errWideFilter(op string) error {
	return fmt.Errorf("oblivmc: %s over multi-column tables needs the wide-predicate form (FilterRows / Query.FilterWide)", op)
}

// wideRowOf converts a relational record to a WideRow at width w (the
// wide-predicate calling convention; the row is handed to the predicate by
// value and must not be retained).
func wideRowOf(rec relops.Record, w int) WideRow {
	keys := make([]uint64, w)
	for k := 0; k < w; k++ {
		keys[k] = rec.Col(k)
	}
	return WideRow{Keys: keys, Val: rec.Val}
}

// errNilPredicate is what Filter and FilterRows return for a nil predicate:
// inside a Query nil means "no filter stage", so the wrappers own the check.
var errNilPredicate = errors.New("oblivmc: filter requires a predicate")

// FilterRows obliviously selects the rows satisfying pred at any key
// width, preserving input order — the wide-predicate form of Filter (the
// ROADMAP "wide filters" follow-on). pred must be a pure function of the
// row; the access pattern depends only on the row count and width, never
// on the contents or the survivor count. It is the one-stage
// Query{FilterWide: pred}.
func FilterRows(cfg Config, t Table, pred func(WideRow) bool) (Table, *Report, error) {
	if pred == nil {
		return Table{}, nil, errNilPredicate
	}
	return RunQuery(cfg, t, Query{FilterWide: pred})
}

// Filter obliviously selects the rows satisfying pred, preserving input
// order. pred must be a pure function of the row (it computes on register
// values; it is never handed memory). The access pattern depends only on
// the number of rows — not on the contents, and not on how many rows
// survive (the survivor count is only visible in the returned Table).
// Width-1 tables only (see ROADMAP for wide filters). It is the one-stage
// Query{Filter: pred}.
func Filter(cfg Config, t Table, pred func(Row) bool) (Table, *Report, error) {
	if pred == nil {
		return Table{}, nil, errNilPredicate
	}
	return RunQuery(cfg, t, Query{Filter: pred})
}

// Distinct obliviously deduplicates the table by its key tuple: the
// earliest row of each key survives, in first-occurrence order. It is the
// one-stage Query{Distinct: true}.
func Distinct(cfg Config, t Table) (Table, *Report, error) {
	return RunQuery(cfg, t, Query{Distinct: true})
}

// GroupByCols obliviously aggregates the table by its full key tuple —
// GROUP BY (a, b) for a two-column table: the result holds one row per
// distinct key tuple whose Val is the aggregate of the group under agg, in
// first-occurrence order. Values are unbounded uint64s and sums wrap
// modulo 2^64 (AggVar additionally sums squares — keep values below 2^32
// if exact variances are required). It is the one-stage Query{GroupBy:
// agg}; AggNone, which a Query reads as "no group-by stage", is rejected
// here.
func GroupByCols(cfg Config, t Table, agg Agg) (Table, *Report, error) {
	if _, err := agg.kind(); err != nil {
		return Table{}, nil, err
	}
	return RunQuery(cfg, t, Query{GroupBy: agg})
}

// GroupBy is GroupByCols under its historical name: for width-1 tables the
// key tuple is the single key column, so both names aggregate identically.
func GroupBy(cfg Config, t Table, agg Agg) (Table, *Report, error) {
	return GroupByCols(cfg, t, agg)
}

// TopK obliviously keeps the k rows with the largest values, in descending
// value order, ties by input position (earliest first) on every sort
// backend and table size. k is public query shape, not data; the access
// pattern depends on (rows, k) only. It is the one-stage Query{TopK: k}: a
// bitonic tournament of O(n log² k) comparators over the n padded rows,
// not a sort. A Query reads k == 0 as "no top-k stage", so TopK answers it
// here with an empty table of t's width and no run: k is public, so
// answering before the run leaks nothing.
func TopK(cfg Config, t Table, k int) (Table, *Report, error) {
	if t.Len() == 0 {
		return Table{}, nil, ErrEmptyInput
	}
	if k == 0 {
		return Table{width: t.Width()}, nil, nil
	}
	return RunQuery(cfg, t, Query{TopK: k})
}

// JoinedRow is one output row of Join: a right row paired with the value
// of the left row sharing its key.
type JoinedRow struct {
	Key, LeftVal, RightVal uint64
}

// Join obliviously computes the equi-join of left (a primary relation with
// distinct keys) and right (a foreign relation): one output row per right
// row whose key appears in left, in right's order. It is one §F
// send-receive (two sorts), the construction Lookup runs: left rows are
// the sources, right keys the requests. Keys span the table range (below
// relops.KeyLimit). The access pattern depends only on the two relation
// sizes — the join selectivity is invisible to the adversary. Width-1
// tables only; multi-column joins are JoinAllRows.
func Join(cfg Config, left, right Table) ([]JoinedRow, *Report, error) {
	if left.Len() == 0 || right.Len() == 0 {
		return nil, nil, ErrEmptyInput
	}
	// The width test picks the output form (JoinedRow carries one key), not
	// a storage: multi-column joins are JoinAllRows.
	if left.Width() > 1 || right.Width() > 1 {
		return nil, nil, errWideFilter("Join")
	}
	vals, found, rep, err := sendReceive(cfg, left.Len(), right.Len(),
		func(i int) (uint64, uint64) { return left.recs[i].Key, left.recs[i].Val },
		func(j int) uint64 { return right.recs[j].Key })
	if err != nil {
		return nil, nil, err
	}
	var out []JoinedRow
	for j, r := range right.recs {
		if found[j] {
			out = append(out, JoinedRow{Key: r.Key, LeftVal: vals[j], RightVal: r.Val})
		}
	}
	return out, rep, nil
}

// WideJoinedRow is one output row of JoinAllRows (and of the wide Join
// surface generally): the matched key tuple plus both sides' values. Keys
// holds the key columns in significance order, like WideRow's.
type WideJoinedRow struct {
	Keys              []uint64
	LeftVal, RightVal uint64
}

// wideJoinedOf converts unloaded join records to rows at width w.
func wideJoinedOf(recs []relops.Joined, w int) []WideJoinedRow {
	out := make([]WideJoinedRow, len(recs))
	for i, rec := range recs {
		keys := make([]uint64, w)
		keys[0] = rec.Key
		if w > 1 {
			keys[1] = rec.Key2
		}
		out[i] = WideJoinedRow{Keys: keys, LeftVal: rec.LeftVal, RightVal: rec.RightVal}
	}
	return out
}

// checkJoinTables validates a join's public shape: non-empty sides, equal
// key widths, and a capacity within the row bounds (or the JoinCapAuto
// sentinel, which the join resolves inside the run).
func checkJoinTables(left, right Table, maxOut int) error {
	if left.Len() == 0 || right.Len() == 0 {
		return ErrEmptyInput
	}
	if left.Width() != right.Width() {
		return fmt.Errorf("%w (join of width-%d and width-%d tables)", ErrBadWidth, left.Width(), right.Width())
	}
	if maxOut == JoinCapAuto {
		return nil
	}
	if err := relops.CheckCapacity(int64(maxOut)); err != nil {
		return fmt.Errorf("%w (maxOut %d)", ErrBadCapacity, maxOut)
	}
	return nil
}

// joinErr lifts a relops join error to the public typed errors, attaching
// the numbers a retry needs: the true match count against the declared
// capacity for an overflow, the unholdable bound for a JoinCapAuto join.
func joinErr(err error, matches, maxOut int) error {
	switch {
	case errors.Is(err, relops.ErrJoinOverflow):
		return fmt.Errorf("%w (%d matches, capacity %d)", ErrJoinOverflow, matches, maxOut)
	case errors.Is(err, relops.ErrCapTooLarge):
		return fmt.Errorf("%w (bound %d)", ErrCapTooLarge, matches)
	}
	return err
}

// JoinAllRows obliviously computes the full many-to-many equi-join of left
// and right: one output row per (left row, right row) pair sharing its key
// tuple, ordered by (right row position, left row position). Unlike Join,
// left key tuples may repeat, and every key width is supported (this is
// the wide Join surface the ROADMAP called for).
//
// maxOut is the *public* output capacity: the access pattern depends only
// on (len(left), len(right), width, maxOut) — never on the contents or on
// the true match count, which stays invisible to the adversary. When the
// match count exceeds maxOut, the error wraps ErrJoinOverflow and carries
// the true count, so the caller can retry with a sufficient public bound
// (at worst len(left)*len(right)). Passing JoinCapAuto instead lets the
// join size itself from its own key sort — the worst-case bound, which
// cannot overflow, at no extra pass — at the cost of revealing that bound
// as public shape.
func JoinAllRows(cfg Config, left, right Table, maxOut int) ([]WideJoinedRow, *Report, error) {
	if err := checkJoinTables(left, right, maxOut); err != nil {
		return nil, nil, err
	}
	e, done := oneShot(cfg)
	defer done()
	w := left.Width()
	var out []WideJoinedRow
	var runErr error
	rep, err := e.run(func(c *forkjoin.Ctx, sp *mem.Space) {
		l, err := relops.Load(sp, left.recs, w)
		if err != nil {
			runErr = err
			return
		}
		r, err := relops.Load(sp, right.recs, w)
		if err != nil {
			runErr = err
			return
		}
		j, m, err := relops.JoinAll(c, sp, e.arena, l, r, maxOut, e.srt)
		if err != nil {
			runErr = joinErr(err, m, maxOut)
			return
		}
		out = wideJoinedOf(relops.UnloadJoined(j), w)
	})
	if err != nil {
		return nil, nil, err
	}
	if runErr != nil {
		return nil, nil, runErr
	}
	return out, rep, nil
}

// JoinSpec declares the optional join stage of a Query.
type JoinSpec struct {
	// Left is the relation joined against the queried table: every row of
	// the table is matched with every Left row sharing its full key tuple.
	// Key tuples may repeat on both sides (many-to-many).
	Left Table
	// MaxOut is the public output capacity of the join — part of the query
	// shape, like the table sizes. A query whose true match count exceeds
	// it fails with ErrJoinOverflow. JoinCapAuto lets the join size itself
	// (the worst-case bound can never overflow).
	MaxOut int
}

// Query is a declarative oblivious analytics pipeline over one table:
//
//	Join (optional) → Filter (optional) → Distinct (optional) → GroupBy (optional) → TopK (optional)
//
// The query structure (which stages run, the aggregation, k, the declared
// key-only-ness of the filter) is public, as is the table's key-column
// count; the table contents, including how many rows survive each stage,
// are not: every stage processes the full padded array, so the trace
// depends only on the table's row count, its width, and the query shape.
// The Distinct and GroupBy stages group by the table's full key tuple.
//
// RunQuery compiles the stages through the internal/plan sort-fusion
// planner before executing: stages that only drop rows defer their
// compaction to the next sort, adjacent stages needing the same key order
// share one sorting pass, and a filter declared FilterKeyOnly is pushed
// below Distinct/GroupBy into their existing passes. A multi-stage query
// therefore runs strictly fewer O(n log² n) sorting-network passes than
// calling the stand-alone operators (Filter, Distinct, GroupBy, TopK — each
// a one-stage Query) in sequence (the full four-stage pipeline: 1 sort
// instead of 5; TopK's bitonic tournament sorts nothing) while producing
// the same rows — at every key width.
type Query struct {
	// Join, when non-nil, prepends a many-to-many equi-join stage: the
	// queried table (the join's right side) is expanded to one row per
	// (Left row, table row) pair sharing its full key tuple, carrying the
	// table row's value, and the later stages run over the matches. Left
	// values are not delivered through a Query (use JoinAllRows for both
	// sides' values). The planner defers the join's value-propagation and
	// output-compaction sorts whenever a later stage re-sorts anyway.
	Join *JoinSpec
	// Filter keeps the rows satisfying the predicate (nil = keep all).
	// Width-1 tables only; multi-column tables use FilterWide.
	Filter func(Row) bool
	// FilterWide is the wide-predicate filter form, accepted at every key
	// width (the row carries the full key tuple). At most one of Filter
	// and FilterWide may be set.
	FilterWide func(WideRow) bool
	// FilterKeyOnly declares that the filter (either form) depends only on
	// the key columns. This is public query shape: it allows the planner
	// to push the filter below Distinct/GroupBy (a key-only predicate
	// drops whole key groups, so dedup heads and group aggregates are
	// unchanged by the reorder). A predicate that reads the value despite
	// this declaration yields unspecified results — though still an
	// oblivious trace.
	FilterKeyOnly bool
	// Distinct deduplicates by the key tuple before aggregation.
	Distinct bool
	// GroupBy aggregates values per key tuple (AggNone = no aggregation).
	GroupBy Agg
	// TopK keeps only the k largest-value rows (0 = keep all).
	TopK int
	// KeyOrderOut delivers the result rows in ascending key-tuple order
	// instead of the operators' first-occurrence order, and stamps the
	// result Table with the OrderKeys token. For queries ending in
	// Distinct/GroupBy the relation is already key-sorted after the group
	// pass, so the position-restoring compaction sort disappears entirely
	// (a plain GroupBy runs 1 sort instead of 2); other non-TopK shapes
	// pay one key sort in place of the compaction sort. TopK queries
	// ignore it (their public order is descending value). This is the
	// serving layer's materialization mode: a follow-up query over the
	// stored result skips its own key sort via the token. The requested
	// order is public query shape, like every other field here.
	KeyOrderOut bool
}

// shape extracts the public planner shape of q over a width-w table whose
// sorted-by token is ord. Every field — including the fed-forward input
// order — is public, so the compiled plan (and with it the trace) stays a
// function of query shapes only.
func (q Query) shape(kind relops.AggKind, w int, ord TableOrder) plan.Shape {
	return plan.Shape{
		KeyCols:       w,
		Join:          q.Join != nil,
		Filter:        q.Filter != nil || q.FilterWide != nil,
		FilterKeyOnly: q.FilterKeyOnly,
		Distinct:      q.Distinct,
		GroupBy:       q.GroupBy != AggNone,
		Agg:           uint8(kind),
		TopK:          q.TopK,
		InputOrder:    planOrderOf(ord),
		KeyOrderOut:   q.KeyOrderOut,
	}
}

// Explain returns the pass sequence q will execute over a width-1 table
// (ExplainWidth renders other widths), e.g.
// "filter-mark → sort(key,pos) → dedup+aggregate → topk [1 sorts, staged
// 5]". It validates q exactly like RunQuery and depends only on the query
// shape.
func Explain(q Query) (string, error) {
	return ExplainWidth(q, 1)
}

// ExplainTable is Explain against a concrete table: the plan is built at
// the table's key width and — the cross-query seam — against its sorted-by
// token, so a query whose first sort the token covers renders without that
// sort (e.g. "in(key,pos) → aggregate [0 sorts, cold 1, staged 2]").
func ExplainTable(t Table, q Query) (string, error) {
	return explainOrdered(q, t.Width(), t.order)
}

// ExplainWidth is Explain for a table of w key columns.
func ExplainWidth(q Query, w int) (string, error) {
	return explainOrdered(q, w, OrderNone)
}

func explainOrdered(q Query, w int, ord TableOrder) (string, error) {
	kind, err := queryAgg(q)
	if err != nil {
		return "", err
	}
	return plan.Build(q.shape(kind, w, ord)).String(), nil
}

// pred resolves q's filter (either form) to a relational-record predicate
// at width w, or nil when the query has no filter.
func (q Query) pred(w int) func(relops.Record) bool {
	if q.FilterWide != nil {
		fw := q.FilterWide
		return func(r relops.Record) bool { return fw(wideRowOf(r, w)) }
	}
	if q.Filter != nil {
		f := q.Filter
		return func(r relops.Record) bool { return f(Row{Key: r.Key, Val: r.Val}) }
	}
	return nil
}

// queryAgg validates q's shape parameters (shared by RunQuery and Explain,
// so the explain surface never blesses a shape the executor refuses) and
// resolves the aggregation kind.
func queryAgg(q Query) (relops.AggKind, error) {
	if q.Filter != nil && q.FilterWide != nil {
		return 0, fmt.Errorf("oblivmc: Query.Filter and Query.FilterWide are mutually exclusive")
	}
	if q.TopK < 0 {
		return 0, fmt.Errorf("oblivmc: negative k %d", q.TopK)
	}
	if q.GroupBy == AggNone {
		return 0, nil
	}
	return q.GroupBy.kind()
}

// RunQuery executes q over t under one executor run, so a metered Config
// yields a single Report covering the whole pipeline.
func RunQuery(cfg Config, t Table, q Query) (Table, *Report, error) {
	e, done := oneShot(cfg)
	defer done()
	out, rep, _, err := runQuery(e, t, q)
	return out, rep, err
}

// queryJoin runs q's join stage over the loaded right relation r (the
// queried table): it loads the left relation and expands r to one record
// per match, carrying the right record's key tuple, value, and original
// position. deferred selects JoinAllDeferred (the planner dropped the
// join's propagate+compact tail because a later pass re-sorts anyway).
// Errors are the public typed wraps JoinAllRows returns (joinErr).
func queryJoin(e exec, c *forkjoin.Ctx, sp *mem.Space, j *JoinSpec, r relops.Rel, deferred bool) (relops.Rel, error) {
	l, err := relops.Load(sp, j.Left.recs, r.W)
	if err != nil {
		return relops.Rel{}, err
	}
	join := relops.JoinAll
	if deferred {
		join = relops.JoinAllDeferred
	}
	joined, m, err := join(c, sp, e.arena, l, r, j.MaxOut, e.srt)
	if err != nil {
		return relops.Rel{}, joinErr(err, m, j.MaxOut)
	}
	return joined, nil
}

// runQuery is the one relational execution path: RunQuery, the
// one-operator wrappers and Session.RunQueryCtx all land here. It validates q against t, compiles q's shape — including the
// input table's sorted-by token, the cross-query seam — and executes the
// fused pass sequence under e's executor, with e's scratch arena and e's one
// sorter (the shuffle backend is stateful, so one instance serves all of a
// run's sorts). The
// join stage is binary, so this layer — which holds both relations — peels
// it off the plan's head and hands Execute the remaining unary passes over
// the expanded relation. The result table is stamped with the plan's
// output order token; the plan is returned for the caller's bookkeeping.
func runQuery(e exec, t Table, q Query) (Table, *Report, plan.Plan, error) {
	fail := func(err error) (Table, *Report, plan.Plan, error) {
		return Table{}, nil, plan.Plan{}, err
	}
	if t.Len() == 0 {
		return fail(ErrEmptyInput)
	}
	// The width test picks the predicate form (Row carries one key), not a
	// storage: the records are the same at every width.
	if q.Filter != nil && t.Width() > 1 {
		return fail(errWideFilter("Query.Filter"))
	}
	if q.Join != nil {
		if err := checkJoinTables(q.Join.Left, t, q.Join.MaxOut); err != nil {
			return fail(err)
		}
	}
	kind, err := queryAgg(q)
	if err != nil {
		return fail(err)
	}
	pl := plan.Build(q.shape(kind, t.Width(), t.order))
	pred := q.pred(t.Width())
	var out Table
	var runErr error
	rep, err := e.run(func(c *forkjoin.Ctx, sp *mem.Space) {
		r, err := relops.Load(sp, t.recs, t.Width())
		if err != nil {
			runErr = err
			return
		}
		rest := pl
		if q.Join != nil {
			jop := rest.Ops[0] // plan.Build puts OpJoinAll first
			rest.Ops = rest.Ops[1:]
			if r, err = queryJoin(e, c, sp, q.Join, r, jop.Deferred); err != nil {
				runErr = err
				return
			}
		}
		relops.Execute(c, sp, e.arena, r, rest, pred, e.srt)
		out = tableOf(r)
	})
	if err != nil {
		return fail(err)
	}
	if runErr != nil {
		return fail(runErr)
	}
	out.order = tableOrderOf(pl.Output)
	return out, rep, pl, nil
}
