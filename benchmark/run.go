package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"oblivmc/internal/bitonic"
	"oblivmc/internal/plan"
)

// runOpts is what one run is asked to do.
type runOpts struct {
	seed   uint64
	sz     sizes
	window time.Duration // how long the run measures
	setups int           // how many times an untraced run sets up (setup_s is their median)
	outDir string        // where a traced run writes its span list
}

// runResult is the outcome of one run, in the form the last output line has.
type runResult struct {
	attempted int
	failed    int
	samples   int // timed ops behind op_p50_s
	metrics   map[string]metric
}

// tally counts one checked op.
func (r *runResult) tally(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// minOps is the least number of ops a run times, whatever the window.
const minOps = 3

// refFloor is the least time one timing of the reference covers: a reference
// faster than this is repeated back to back and the time divided, so that
// tax_x does not hang on a timing of a few microseconds.
const refFloor = 20 * time.Millisecond

func reportMismatch(workload string, seed uint64, op int, what string) {
	fmt.Fprintf(os.Stderr, "FAILED workload=%s seed=%d op=%d: %s\n", workload, seed, op, what)
}

// matches reports whether an op succeeded with the reference's answer, and
// says so on standard error when it did not.
func matches(w workloadDef, seed uint64, op int, res result, err error, want []outRow) bool {
	switch {
	case err != nil:
		reportMismatch(w.name, seed, op, err.Error())
	case !slices.Equal(res(), want):
		reportMismatch(w.name, seed, op, "result differs from the reference")
	default:
		return true
	}
	return false
}

// measureBatch is the untraced run of a batch workload: set up (several
// times; the last one is measured on), then a closed loop of ops for the
// window. After each op, outside its timing, the plain-Go reference answers
// the same op and the two are compared.
func measureBatch(w workloadDef, o runOpts) (runResult, error) {
	var res runResult
	var b *batch
	var setupS []float64
	var refOnce time.Duration
	for range o.setups {
		if b != nil {
			b.close()
			b = nil
			runtime.GC()
		}
		t0 := time.Now()
		nb, err := w.batch(o.seed, o.sz)
		if err != nil {
			return res, fmt.Errorf("set up %s: %w", w.name, err)
		}
		b = nb
		t1 := time.Now()
		want := b.ref()
		refOnce = time.Since(t1)
		warm, err := b.run()
		res.tally(matches(w, o.seed, -1, warm, err, want))
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer b.close()
	refReps := max(1, int(refFloor/max(refOnce, 1)))

	var opS, refS []float64
	var measured time.Duration
	var alloc uint64
	var m0, m1 runtime.MemStats
	timed := 0
	for op := 0; measured < o.window || op < minOps; op++ {
		// Every op and every reference run starts from a collected heap, so
		// neither inherits the other's garbage or GC phase.
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		out, err := b.run()
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		measured += d
		alloc += m1.TotalAlloc - m0.TotalAlloc
		timed++

		runtime.GC()
		t0 = time.Now()
		var want []outRow
		for range refReps {
			want = b.ref()
		}
		refS = append(refS, time.Since(t0).Seconds()/float64(refReps))
		ok := matches(w, o.seed, op, out, err, want)
		res.tally(ok)
		if ok {
			opS = append(opS, d.Seconds())
		}
	}

	ms := newMetricSet(endToEndUnits)
	ms.set("setup_s", median(setupS))
	ms.set("op_p50_s", median(opS))
	ms.set("ops_per_s", float64(len(opS))/measured.Seconds())
	ms.set("rows_per_s", float64(len(opS)*b.rows)/measured.Seconds())
	ms.set("tax_x", ratio(median(opS), median(refS)))
	ms.set("alloc_mb_per_op", float64(alloc)/mib/float64(timed))
	res.samples = len(opS)
	res.metrics = ms.m
	return res, nil
}

// traceBatch is the traced run of a batch workload. For the window it
// alternates the op as a user runs it (untraced) with its replay through the
// layers' public functions under the timing decorators; the per-layer numbers
// come from the replay's spans, and the difference between the two is the
// tracing overhead.
func traceBatch(w workloadDef, o runOpts) (runResult, error) {
	var res runResult
	b, err := w.batch(o.seed, o.sz)
	if err != nil {
		return res, fmt.Errorf("set up %s: %w", w.name, err)
	}
	defer b.close()
	want := b.ref()
	// One warm-up each, checked like any op; the replay's spans are dropped.
	out, err := b.run()
	res.tally(matches(w, o.seed, -1, out, err, want))
	out, err = b.replay(newTracer(), 0)
	res.tally(matches(w, o.seed, -1, out, err, want))

	tr := newTracer()
	var plainS []float64
	var netCalls int64
	var measured time.Duration
	ops := 0
	for measured < o.window || ops < minOps {
		ops++
		runtime.GC()
		t0 := time.Now()
		out, err := b.run()
		d := time.Since(t0)
		plainS = append(plainS, d.Seconds())
		measured += d
		res.tally(matches(w, o.seed, ops, out, err, want))

		runtime.GC()
		calls0 := bitonic.NetworkCalls()
		t0 = time.Now()
		out, err = b.replay(tr, ops)
		measured += time.Since(t0)
		netCalls = bitonic.NetworkCalls() - calls0
		res.tally(matches(w, o.seed, ops, out, err, want))
	}

	ms := newMetricSet(perLayerUnits)
	plain := median(plainS)
	coreS := medianOf(tr.perOp(b.core))
	sortS := medianOf(tr.perOp(spanSort))
	calls, elems := tr.opStats(spanSort, 1)
	ms.set("trace_overhead_frac", ratio(medianOf(tr.perOp(spanReplay)), plain)-1)
	ms.set("bitonic.network_calls_per_op", float64(netCalls))
	ms.set("oblivmc.session_overhead_s", plain-coreS)
	if b.rounds > 0 {
		ms.set("graph.cc_round_s", coreS/float64(b.rounds))
		ms.set("graph.cc_sorts_per_round", float64(calls)/float64(b.rounds))
		ms.set("graph.cc_sort_share", ratio(sortS, coreS))
		ms.set("graph.cc_sorted_elems_per_edge", float64(elems)/float64(b.rows))
	} else {
		_, padded := tr.opStats(spanLoad, 1)
		ms.set("relops.load_ns_per_row", medianOf(tr.perOp(spanLoad))*1e9/float64(b.rows))
		ms.set("relops.execute_s", coreS)
		ms.set("relops.sort_s", sortS)
		ms.set("relops.nonsort_s", medianOf(tr.selfPerOp(b.core)))
		ms.set("relops.sort_share", ratio(sortS, coreS))
		ms.set("relops.sort_passes", float64(calls))
		ms.set("relops.sorted_elems_per_row", float64(elems)/float64(b.rows))
		ms.set("relops.pad_frac", 1-float64(b.rows)/float64(padded))
	}
	if len(b.plan.Ops) > 0 {
		setPlanMetrics(ms, b.plan, medianOf(tr.perOp(spanPlan)))
	}
	if b.oneShot != nil {
		var oneS []float64
		for range minOps {
			t0 := time.Now()
			if err := b.oneShot(); err != nil {
				return res, fmt.Errorf("%s one-shot op: %w", w.name, err)
			}
			oneS = append(oneS, time.Since(t0).Seconds())
		}
		ms.set("oblivmc.oneshot_vs_session_x", ratio(median(oneS), plain))
	}
	if err := runProbes(ms, o.seed, o.sz); err != nil {
		return res, err
	}
	res.samples = ops
	res.metrics = ms.complete()
	return res, tr.write(o.outDir, w.name)
}

func setPlanMetrics(ms *metricSet, pl plan.Plan, buildS float64) {
	ms.set("plan.build_us", buildS*1e6)
	ms.set("plan.sorts_fused", float64(pl.SortPasses))
	ms.set("plan.sorts_staged", float64(pl.StagedSortPasses))
}

// measureServe is the untraced run of serve_mix: set up (several times), then
// two closed-loop clients for the window. The reference answers the executed
// request sequence afterwards, on one goroutine.
func measureServe(w workloadDef, o runOpts) (runResult, error) {
	var res runResult
	var env *serveEnv
	var data *serveData
	var setupS []float64
	var warm []record
	for range o.setups {
		if env != nil {
			env.close()
			env = nil
			runtime.GC()
		}
		t0 := time.Now()
		data = genServe(o.seed, o.sz)
		var err error
		env, warm, err = newServeEnv(o.seed, data, o.sz.serveWarm, false, nil)
		if err != nil {
			return res, fmt.Errorf("set up %s: %w", w.name, err)
		}
		failed, _ := data.check(w.name, o.seed, warm)
		res.attempted += len(warm)
		res.failed += failed
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer env.close()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	recs, wall := env.driveFor(o.window)
	runtime.ReadMemStats(&m1)
	failed, refTime := data.check(w.name, o.seed, recs)
	res.attempted += len(recs)
	res.failed += failed

	lat := latencies(recs, numClasses)
	rows := 0
	for _, r := range recs {
		if r.err == nil {
			rows += data.tableRows(r.req)
		}
	}
	ok := len(recs) - failed
	ms := newMetricSet(endToEndUnits)
	ms.set("setup_s", median(setupS))
	ms.set("op_p50_s", median(lat))
	ms.set("ops_per_s", float64(ok)/wall.Seconds())
	ms.set("rows_per_s", float64(rows)/wall.Seconds())
	ms.set("tax_x", ratio(wall.Seconds(), refTime.Seconds()))
	ms.set("alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/mib/float64(len(recs)))
	res.samples = len(lat)
	res.metrics = ms.m
	return res, nil
}

// traceServe is the traced run of serve_mix, three passes over the same
// schedule, each on a fresh server: untraced over HTTP and traced over HTTP
// (half the window each; their difference is the tracing overhead), then a
// fixed number of requests from one goroutine straight into Server.Execute,
// which is what the exact counts and the wire overhead are read against.
func traceServe(w workloadDef, o runOpts) (runResult, error) {
	var res runResult
	data := genServe(o.seed, o.sz)
	tr := newTracer()
	// pass runs one pass on a fresh server and hands the closed env back for
	// its counters.
	pass := func(direct bool, tr *tracer, run func(*serveEnv) []record) ([]record, *serveEnv, error) {
		env, warm, err := newServeEnv(o.seed, data, o.sz.serveWarm, direct, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("set up %s: %w", w.name, err)
		}
		defer env.close()
		recs := run(env)
		all := append(warm, recs...)
		failed, _ := data.check(w.name, o.seed, all)
		res.attempted += len(all)
		res.failed += failed
		return recs, env, nil
	}
	timedPass := func(env *serveEnv) []record {
		recs, _ := env.driveFor(o.window / 2)
		return recs
	}
	plain, _, err := pass(false, nil, timedPass)
	if err != nil {
		return res, err
	}
	traced, env, err := pass(false, tr, timedPass)
	if err != nil {
		return res, err
	}
	var netCalls int64
	direct, _, err := pass(true, nil, func(env *serveEnv) []record {
		calls0 := bitonic.NetworkCalls()
		recs := env.drive(1, func(dealt int) bool { return dealt >= o.sz.directReqs })
		netCalls = bitonic.NetworkCalls() - calls0
		return recs
	})
	if err != nil {
		return res, err
	}

	ms := newMetricSet(perLayerUnits)
	p50ms := func(recs []record, c reqClass) float64 { return median(latencies(recs, c)) * 1e3 }
	ms.set("trace_overhead_frac", ratio(p50ms(traced, numClasses), p50ms(plain, numClasses))-1)
	ms.set("serve.op_p99_ms", quantile(latencies(traced, numClasses), 0.99)*1e3)
	ms.set("serve.hit_p50_ms", p50ms(traced, classHit))
	ms.set("serve.miss_small_p50_ms", p50ms(traced, classMissSmall))
	ms.set("serve.miss_large_p50_ms", p50ms(traced, classMissLarge))
	ms.set("serve.token_p50_ms", p50ms(traced, classToken))
	ms.set("serve.reload_p50_ms", p50ms(traced, classReload))
	ms.set("serve.execute_direct_p50_ms", p50ms(direct, numClasses))
	ms.set("client.wire_overhead_ms", p50ms(traced, classHit)-p50ms(direct, classHit))
	queries, cached := 0, 0
	for _, r := range traced {
		if r.req.class != classReload && r.err == nil {
			queries++
			if r.stats.Cached {
				cached++
			}
		}
	}
	ms.set("serve.cache_hit_frac", ratio(float64(cached), float64(queries)))
	ms.set("serve.peak_concurrency", float64(env.srv.PeakConcurrency()))
	trips := env.transport.trips.Load() - env.warmTrips
	ms.set("serve.busy_frac", ratio(float64(env.transport.busy.Load()), float64(trips)))
	ms.set("client.retries", float64(trips-int64(len(traced))))
	cold, executed := 0, 0
	for _, r := range direct {
		if r.req.class == classToken && r.err == nil && !r.stats.Cached {
			cold += r.stats.ColdSortPasses
			executed += r.stats.SortPasses
		}
	}
	ms.set("serve.token_sorts_saved_frac", ratio(float64(cold-executed), float64(cold)))
	ms.set("bitonic.network_calls_per_op", float64(netCalls)/float64(len(direct)))
	// The planner numbers are those of the mix's miss shape, built directly.
	shape := plan.Shape{KeyCols: 1, Filter: true, GroupBy: true, TopK: 10}
	var buildS []float64
	var pl plan.Plan
	for range 1000 {
		t0 := time.Now()
		pl = plan.Build(shape)
		buildS = append(buildS, time.Since(t0).Seconds())
	}
	setPlanMetrics(ms, pl, median(buildS))
	if err := runProbes(ms, o.seed, o.sz); err != nil {
		return res, err
	}
	res.samples = len(traced)
	res.metrics = ms.complete()
	return res, tr.write(o.outDir, w.name)
}
