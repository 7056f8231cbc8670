package main

import (
	"fmt"

	"oblivmc"
	"oblivmc/internal/bitonic"
	"oblivmc/internal/core"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/graph"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/plan"
	"oblivmc/internal/relops"
)

// workers is W: the fork-join pool size of every batch op. The box has two
// CPUs; the harness never runs more goroutines issuing work than that.
const workers = 2

// Span names of the engine-core call each batch workload's time is split on.
const (
	spanReplay  = "replay"
	spanLoad    = "relops.Load"
	spanExecute = "relops.Execute"
	spanJoinAll = "relops.JoinAll"
	spanCC      = "graph.ConnectedComponentsMinHook"
	spanPlan    = "plan.Build"
)

// result is an op's output, converted to the canonical form only when the
// checker asks: the conversion stays outside the timed call.
type result func() []outRow

// batch is one set-up batch workload: a closed loop of identical ops issued
// by one caller.
type batch struct {
	rows int // input rows of one op (rows_per_s)
	// run executes one op through the public API, as a user would.
	run func() (result, error)
	// ref answers the same op in plain Go.
	ref func() []outRow
	// replay executes the same op through each layer's public functions with
	// the benchmark's timing decorators, recording spans under op.
	replay func(tr *tracer, op int) (result, error)
	// core names the span holding the engine-core call (spanExecute, ...).
	core string
	// oneShot, when set, runs the op without the pooled session.
	oneShot func() error
	// plan is the op's compiled plan (zero when the op has none).
	plan plan.Plan
	// rounds is the fixed public round count of a graph op (0 otherwise).
	rounds int
	close  func()
}

func execConfig(seed uint64, backend oblivmc.SortBackend) oblivmc.Config {
	return oblivmc.Config{
		Mode:        oblivmc.ModeParallel,
		Workers:     workers,
		Seed:        seed,
		SortBackend: backend,
		// Pinned shuffle coins: every run of one seed executes the same
		// sequence of traces.
		DeterministicShuffle: true,
	}
}

// queryDef is a Session.RunQuery workload: the public query and, for the
// replay, the same query as the planner and the fused executor see it.
type queryDef struct {
	tab   oblivmc.Table
	query oblivmc.Query
	shape plan.Shape
	pred  func(relops.Record) bool
	ref   func() []outRow
}

func tableOut(t oblivmc.Table) []outRow {
	if t.Width() == 1 {
		return narrowOut(t.Rows())
	}
	return wideOut(t.WideRows())
}

func recordsOf(t oblivmc.Table) []relops.Record {
	if t.Width() == 1 {
		recs := make([]relops.Record, t.Len())
		for i, r := range t.Rows() {
			recs[i] = relops.Record{Key: r.Key, Val: r.Val}
		}
		return recs
	}
	recs := make([]relops.Record, t.Len())
	for i, r := range t.WideRows() {
		recs[i] = relops.Record{Key: r.Keys[0], Key2: r.Keys[1], Val: r.Val}
	}
	return recs
}

func recordsOut(recs []relops.Record) []outRow {
	out := make([]outRow, len(recs))
	for i, r := range recs {
		out[i] = outRow{r.Key, r.Key2, r.Val}
	}
	return out
}

// newQueryBatch builds the pooled session an analyst's repeated query runs
// on, and the replay's own pool, space, arena and decorated sorter — the same
// persistent resources a Session holds.
func newQueryBatch(seed uint64, d queryDef) *batch {
	cfg := execConfig(seed, oblivmc.SortAuto)
	sess := oblivmc.NewSession(cfg)
	pool := forkjoin.NewPool(workers)
	sp := mem.NewSpace()
	ar := relops.NewArena()
	pl := plan.Build(d.shape)
	w := d.tab.Width()
	var srt *timedSorter
	return &batch{
		rows: d.tab.Len(),
		run: func() (result, error) {
			out, _, err := sess.RunQuery(d.tab, d.query)
			return func() []outRow { return tableOut(out) }, err
		},
		ref:  d.ref,
		core: spanExecute,
		plan: pl,
		oneShot: func() error {
			_, _, err := oblivmc.RunQuery(cfg, d.tab, d.query)
			return err
		},
		replay: func(tr *tracer, op int) (result, error) {
			if srt == nil {
				srt = &timedSorter{inner: &core.ShuffleSorter{FixedSeed: &seed}}
			}
			srt.tr = tr
			var recs []relops.Record
			var err error
			tr.in(0, op, "oblivmc", spanReplay, d.tab.Len(), func(root int) {
				var pl plan.Plan
				tr.in(root, op, "plan", spanPlan, 0, func(int) { pl = plan.Build(d.shape) })
				var in []relops.Record
				tr.in(root, op, "oblivmc", "records", d.tab.Len(), func(int) { in = recordsOf(d.tab) })
				pool.Run(func(c *forkjoin.Ctx) {
					var r relops.Rel
					id := tr.begin(root, op, "relops", spanLoad, obliv.NextPow2(len(in)))
					r, err = relops.Load(sp, in, w)
					tr.end(id)
					if err != nil {
						return
					}
					tr.in(root, op, "relops", spanExecute, r.Len(), func(id int) {
						srt.parent, srt.op = id, op
						relops.Execute(c, sp, ar, r, pl, d.pred, srt)
					})
					tr.in(root, op, "relops", "relops.Unload", r.Len(), func(int) { recs = relops.Unload(r) })
				})
			})
			return func() []outRow { return recordsOut(recs) }, err
		},
		close: func() {
			sess.Close()
			pool.Close()
		},
	}
}

const whyFused = "Headline operator: Filter→Distinct→GroupBy(sum)→TopK(10) over 2^18 narrow rows on the shuffle path (2 fused sorts). core and spms do nearly all the work; no padding, comparator networks idle."

// fusedQuery is the four-stage pipeline over narrow rows; the filter keeps
// values at or above threshold.
func fusedQuery(threshold uint64) oblivmc.Query {
	return oblivmc.Query{
		Filter:   func(r oblivmc.Row) bool { return r.Val >= threshold },
		Distinct: true,
		GroupBy:  oblivmc.AggSum,
		TopK:     fusedTopK,
	}
}

func setupFused(seed uint64, sz sizes) (*batch, error) {
	in := genFused(seed, sz.queryRows)
	tab, err := oblivmc.NewTable(in.rows)
	if err != nil {
		return nil, err
	}
	th := in.threshold
	return newQueryBatch(seed, queryDef{
		tab:   tab,
		query: fusedQuery(th),
		shape: plan.Shape{KeyCols: 1, Filter: true, Distinct: true, GroupBy: true, Agg: uint8(relops.AggSum), TopK: fusedTopK},
		pred:  func(r relops.Record) bool { return r.Val >= th },
		ref:   func() []outRow { return refFused(in) },
	}), nil
}

const whyRagged = "Same sort layer, used differently: GroupBy(avg) over 160001 width-2 rows, two key planes per compare and a ragged size that pads to 2^18 (39 % filler). Arbitrary-n and key-width costs show here."

func setupRagged(seed uint64, sz sizes) (*batch, error) {
	rows := genRagged(seed, sz.raggedRows)
	tab, err := oblivmc.NewWideTable(rows)
	if err != nil {
		return nil, err
	}
	return newQueryBatch(seed, queryDef{
		tab:   tab,
		query: oblivmc.Query{GroupBy: oblivmc.AggAvg},
		shape: plan.Shape{KeyCols: 2, GroupBy: true, Agg: uint8(relops.AggAvg)},
		ref:   func() []outRow { return refGroupAvg(rows) },
	}), nil
}

const whyJoin = "JoinAllRows many-to-many, left 2^13 x right 2^15 rows, public cap 2^15. obliv does most non-sort work (DistributeOrdered merge, AggregateSuffixBy, scans); the work relation is rounded up twice."

func setupJoin(seed uint64, sz sizes) (*batch, error) {
	in := genJoin(seed, sz.joinLeft, sz.joinRight)
	left, err := oblivmc.NewTable(in.left)
	if err != nil {
		return nil, err
	}
	right, err := oblivmc.NewTable(in.right)
	if err != nil {
		return nil, err
	}
	cfg := execConfig(seed, oblivmc.SortAuto)
	return &batch{
		rows: len(in.left) + len(in.right),
		run: func() (result, error) {
			out, _, err := oblivmc.JoinAllRows(cfg, left, right, in.maxOut)
			return func() []outRow { return joinedOut(out) }, err
		},
		ref:  func() []outRow { return refJoin(in) },
		core: spanJoinAll,
		replay: func(tr *tracer, op int) (result, error) {
			var joined []relops.Joined
			var err error
			tr.in(0, op, "oblivmc", spanReplay, len(in.left)+len(in.right), func(root int) {
				// One-shot resources, as JoinAllRows builds them per call.
				forkjoin.RunParallelCancel(workers, nil, func(c *forkjoin.Ctx) {
					sp := mem.NewSpace()
					load := func(t oblivmc.Table) (r relops.Rel) {
						id := tr.begin(root, op, "relops", spanLoad, obliv.NextPow2(t.Len()))
						r, err = relops.Load(sp, recordsOf(t), 1)
						tr.end(id)
						return r
					}
					l := load(left)
					if err != nil {
						return
					}
					r := load(right)
					if err != nil {
						return
					}
					srt := &timedSorter{inner: &core.ShuffleSorter{FixedSeed: &seed}, tr: tr, op: op}
					var j relops.Rel
					tr.in(root, op, "relops", spanJoinAll, l.Len()+r.Len(), func(id int) {
						srt.parent = id
						j, _, err = relops.JoinAll(c, sp, relops.NewArena(), l, r, in.maxOut, srt)
					})
					if err != nil {
						return
					}
					tr.in(root, op, "relops", "relops.UnloadJoined", j.Len(), func(int) { joined = relops.UnloadJoined(j) })
				})
			})
			return func() []outRow {
				out := make([]outRow, len(joined))
				for i, r := range joined {
					out[i] = outRow{r.Key, 0, r.LeftVal, r.RightVal}
				}
				return out
			}, err
		},
		close: func() {},
	}, nil
}

const whyGraph = "Components with SortBitonic and a fixed public round count R=4 over 2^13 edges / 2^10 vertices: 36 medium bitonic sorts via pram gather/scatter. Comparator and per-sort fixed costs dominate."

func setupGraph(seed uint64, sz sizes) (*batch, error) {
	edges := genGraph(seed, sz.ccVerts, sz.ccEdges)
	tab, err := oblivmc.NewEdgeTable(edges)
	if err != nil {
		return nil, err
	}
	pairs := make([][2]int, len(edges))
	for i, e := range edges {
		pairs[i] = [2]int{e.U, e.V}
	}
	cfg := execConfig(seed, oblivmc.SortBitonic)
	return &batch{
		rows:   len(edges),
		rounds: sz.ccRounds,
		run: func() (result, error) {
			out, _, err := oblivmc.Components(cfg, tab, sz.ccRounds)
			return func() []outRow { return narrowOut(out.Rows()) }, err
		},
		ref:  func() []outRow { return refComponents(sz.ccVerts, edges) },
		core: spanCC,
		replay: func(tr *tracer, op int) (result, error) {
			var labels []int
			tr.in(0, op, "oblivmc", spanReplay, len(edges), func(root int) {
				forkjoin.RunParallelCancel(workers, nil, func(c *forkjoin.Ctx) {
					tr.in(root, op, "graph", spanCC, len(edges), func(id int) {
						p := core.Params{Sorter: &timedSorter{inner: bitonic.CacheAgnostic{}, tr: tr, parent: id, op: op}}
						labels, _ = graph.ConnectedComponentsMinHook(c, mem.NewSpace(), sz.ccVerts, pairs, sz.ccRounds, p)
					})
				})
			})
			return func() []outRow {
				out := make([]outRow, len(labels))
				for v, l := range labels {
					out[v] = outRow{uint64(v), 0, uint64(l)}
				}
				return out
			}, nil
		},
		close: func() {},
	}, nil
}

// workloadDef is one named workload. Exactly one of batch and serve is set.
type workloadDef struct {
	name  string
	why   string
	batch func(seed uint64, sz sizes) (*batch, error)
	serve bool
}

// workloads lists the benchmark's workloads under their normative names.
var workloads = []workloadDef{
	{name: "query_fused", why: whyFused, batch: setupFused},
	{name: "groupby_wide_ragged", why: whyRagged, batch: setupRagged},
	{name: "join_all", why: whyJoin, batch: setupJoin},
	{name: "graph_cc_det", why: whyGraph, batch: setupGraph},
	{name: "serve_mix", why: whyServe, serve: true},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}
