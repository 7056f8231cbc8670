package main

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"oblivmc"
	"oblivmc/client"
	"oblivmc/internal/serve"
)

const whyServe = "In-process serve.Server over HTTP, 2 closed-loop clients, seed-fixed mix on t12/t14: 64 % hits, 18/8 % small/large misses, 6 % order-token follow-ups, 4 % reloads. serve, plan, client, Session pool."

// serveClients is the closed-loop client count, and the lane count: one
// single-worker lane per CPU.
const serveClients = 2

// reqClass is a request's planned class in the mix.
type reqClass int

const (
	classHit       reqClass = iota // repeat of one of a table's last hitWindow specs
	classMissSmall                 // fresh filter value on t12: bitonic fallback
	classMissLarge                 // fresh filter value on t14: shuffle path
	classToken                     // fresh query over the key-ordered "totals": first sort skipped
	classReload                    // Load(replace) of t12: its cached results die
	numClasses
)

var className = [numClasses]string{"hit", "miss_small", "miss_large", "token", "reload"}

// mixBlock is the stretch of the schedule over which the mix is exact, and
// mixSlots the requests in it: 64 % hits, 18 % small and 8 % large misses, 6 %
// order-token follow-ups, 4 % reloads. Hits are well above half, so the median
// request is a hit whatever the reloads invalidate; the slowest class is well
// above 1 %, so the p99 lies inside it. Hits repeat specs of the three tables
// in the proportion the misses create them. Only the order inside a block is
// the seed's, so neither throughput nor rows per request swings with the seed.
const mixBlock = 50

const (
	tableSmall  = "t12"
	tableLarge  = "t14"
	tableTotals = "totals"
)

// slot is one place in a block: a class and the table it reads or replaces.
type slot struct {
	class reqClass
	table string
}

var mixSlots = []struct {
	slot
	n int
}{
	{slot{classHit, tableSmall}, 18},
	{slot{classHit, tableLarge}, 8},
	{slot{classHit, tableTotals}, 6},
	{slot{classMissSmall, tableSmall}, 9},
	{slot{classMissLarge, tableLarge}, 4},
	{slot{classToken, tableTotals}, 3},
	{slot{classReload, tableSmall}, 2},
}

// freshClass is the class of a fresh query over each table.
var freshClass = map[string]reqClass{tableSmall: classMissSmall, tableLarge: classMissLarge, tableTotals: classToken}

// hitWindow bounds how far back a hit reaches, per table. The three windows
// together stay well below the server's 128-entry result cache, and a reload
// empties the window of the table it replaces, so a hit misses only when it
// races a reload on the other client.
const hitWindow = 16

// request is one scheduled request. A reload carries no spec: the contents it
// loads are decided by the order reloads are applied in.
type request struct {
	idx   int
	class reqClass
	spec  client.Spec
}

// schedule deals the request sequence of one seed: the order of the slots
// inside each block and every hit's target are the seed's, a fresh value is
// the request's index. Clients draw from it under the lock, so the sequence is
// the same however they interleave.
type schedule struct {
	mu     sync.Mutex
	r      *rand.Rand
	n      int
	block  []slot                   // the slots left in the current block, shuffled
	recent map[string][]client.Spec // per table, the still-cached specs of its last hitWindow queries
}

func newSchedule(seed uint64) *schedule {
	return &schedule{r: newRand(seed, streamSchedule), recent: make(map[string][]client.Spec)}
}

// fresh returns a spec over table that no earlier request sent: the request
// index is in it.
func fresh(table string, i int) client.Spec {
	if table == tableTotals {
		// A key filter is pushed into the aggregate pass, so the stored key
		// order still covers the plan's first sort. (filter value, k) is
		// fresh for 1024 × 61 requests.
		return client.Spec{
			Table:   table,
			Filter:  &client.Filter{Col: 0, Op: "ge", Value: uint64(i % 1024)},
			GroupBy: "max",
			TopK:    3 + (i/1024)%61,
		}
	}
	// Values are below 2^30: the threshold keeps about three rows in four.
	return client.Spec{
		Table:   table,
		Filter:  &client.Filter{Col: -1, Op: "ge", Value: 1<<28 + uint64(i)},
		GroupBy: "sum",
		TopK:    10,
	}
}

func (s *schedule) next() request {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.block) == 0 {
		for _, m := range mixSlots {
			for range m.n {
				s.block = append(s.block, m.slot)
			}
		}
		s.r.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	sl := s.block[0]
	s.block = s.block[1:]
	req := request{idx: s.n, class: sl.class}
	s.n++
	back := s.r.IntN(hitWindow)
	switch sl.class {
	case classReload:
		delete(s.recent, sl.table)
		return req
	case classHit:
		// With nothing of its table left to repeat (right after a reload),
		// a hit repeats a spec of another table.
		for _, t := range []string{sl.table, tableLarge, tableTotals, tableSmall} {
			if live := s.recent[t]; len(live) > 0 {
				req.spec = live[len(live)-1-back%len(live)]
				return req
			}
		}
		req.class = freshClass[sl.table] // the very first requests have nothing to repeat
	}
	req.spec = fresh(sl.table, req.idx)
	live := append(s.recent[sl.table], req.spec)
	s.recent[sl.table] = live[max(0, len(live)-hitWindow):]
	return req
}

// serveData is the generated contents of one seed, and the plain-Go
// materialisation the token queries run over.
type serveData struct {
	small  [2][]oblivmc.Row // the two contents reloads of t12 alternate between
	large  []oblivmc.Row
	totals []oblivmc.Row
}

var totalsSpec = client.Spec{Table: tableLarge, GroupBy: "sum", KeyOrderOut: true, As: tableTotals}

func genServe(seed uint64, sz sizes) *serveData {
	d := &serveData{large: genServeRows(seed, streamServeLarge, 0, sz.serveLarge)}
	for v := range d.small {
		d.small[v] = genServeRows(seed, streamServeSmall, v, sz.serveSmall)
	}
	for _, r := range refSpec(d.large, totalsSpec) {
		d.totals = append(d.totals, oblivmc.Row{Key: r[0], Val: r[2]})
	}
	return d
}

func clientRows(rows []oblivmc.Row) []client.Row {
	out := make([]client.Row, len(rows))
	for i, r := range rows {
		out[i] = client.Row{Keys: []uint64{r.Key}, Val: r.Val}
	}
	return out
}

// record is what the checker and the metrics keep of one executed request.
type record struct {
	req    request
	dur    time.Duration
	err    error
	rows   []client.Row
	stats  client.Stats
	lo, hi int64 // the reload epochs t12 may have been at while this ran
}

// serveEnv is one running server with its data, schedule and backend. The
// backend is how requests reach the server: over HTTP through the Go client,
// or directly through Server.Execute.
type serveEnv struct {
	data  *serveData
	srv   *serve.Server
	sched *schedule
	query func(client.Spec) (rows []client.Row, stats client.Stats, err error)
	load  func(name string, rows []oblivmc.Row, replace bool) error
	close func()
	// transport is the decorated HTTP transport of a traced env (else nil);
	// warmTrips is how many exchanges set-up and warm-up took on it.
	transport *timedTransport
	warmTrips int64

	// Reloads are applied one at a time, in epoch order, so the contents of
	// t12 at any instant are those of an epoch between done and started.
	reloadMu sync.Mutex
	started  atomic.Int64
	done     atomic.Int64
}

func (e *serveEnv) do(req request) record {
	rec := record{req: req}
	if req.class == classReload {
		e.reloadMu.Lock()
		defer e.reloadMu.Unlock()
		epoch := e.started.Add(1)
		t0 := time.Now()
		rec.err = e.load(tableSmall, e.data.small[epoch%2], true)
		rec.dur = time.Since(t0)
		e.done.Add(1)
		return rec
	}
	rec.lo = e.done.Load()
	t0 := time.Now()
	rec.rows, rec.stats, rec.err = e.query(req.spec)
	rec.dur = time.Since(t0)
	rec.hi = e.started.Load()
	return rec
}

// newServeEnv starts a server, loads the tables, materialises totals and runs
// the first warm requests of the schedule, all through the env's own backend:
// they open the connections, warm both lanes at both table sizes and fill the
// hit window. tr, when non-nil,
// puts the timing decorators on the HTTP client and handler. It returns the
// warm-up's records for the checker.
func newServeEnv(seed uint64, data *serveData, warm int, direct bool, tr *tracer) (*serveEnv, []record, error) {
	cfg := execConfig(seed, oblivmc.SortAuto)
	cfg.Workers = 1
	srv := serve.NewServer(serve.Options{Lanes: serveClients, Exec: cfg})
	e := &serveEnv{data: data, srv: srv, sched: newSchedule(seed)}
	if direct {
		e.close = srv.Shutdown
		e.query = func(spec client.Spec) ([]client.Row, client.Stats, error) {
			res, err := srv.Execute(querySpec(spec))
			if err != nil {
				return nil, client.Stats{}, err
			}
			wide := res.Table.WideRows()
			rows := make([]client.Row, len(wide))
			for i, r := range wide {
				rows[i] = client.Row{Keys: r.Keys, Val: r.Val}
			}
			return rows, client.Stats{Cached: res.Stats.Cached, SortPasses: res.Stats.SortPasses, ColdSortPasses: res.Stats.ColdSortPasses}, nil
		}
		e.load = func(name string, rows []oblivmc.Row, replace bool) error {
			wide := make([]oblivmc.WideRow, len(rows))
			for i, r := range rows {
				wide[i] = oblivmc.WideRow{Keys: []uint64{r.Key}, Val: r.Val}
			}
			_, err := srv.LoadTable(name, wide, replace)
			return err
		}
	} else {
		handler := srv.Handler()
		// One connection per client, like the default transport keeps.
		var transport http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients}
		closeIdle := transport.(*http.Transport).CloseIdleConnections
		if tr != nil {
			handler = timedHandler(tr, handler)
			e.transport = &timedTransport{inner: transport, tr: tr}
			transport = e.transport
		}
		ts := httptest.NewServer(handler)
		cl := client.NewWithHTTP(ts.URL, &http.Client{Transport: transport, Timeout: client.DefaultTimeout})
		e.close = func() {
			closeIdle()
			ts.Close()
			srv.Shutdown()
		}
		e.query = func(spec client.Spec) ([]client.Row, client.Stats, error) {
			res, err := cl.Query(spec)
			return res.Rows, res.Stats, err
		}
		e.load = func(name string, rows []oblivmc.Row, replace bool) error {
			_, err := cl.Load(name, clientRows(rows), replace)
			return err
		}
	}
	if err := e.load(tableSmall, data.small[0], false); err != nil {
		e.close()
		return nil, nil, fmt.Errorf("load %s: %w", tableSmall, err)
	}
	if err := e.load(tableLarge, data.large, false); err != nil {
		e.close()
		return nil, nil, fmt.Errorf("load %s: %w", tableLarge, err)
	}
	if _, _, err := e.query(totalsSpec); err != nil {
		e.close()
		return nil, nil, fmt.Errorf("materialise %s: %w", tableTotals, err)
	}
	clients := serveClients
	if direct {
		clients = 1
	}
	recs := e.drive(clients, func(dealt int) bool { return dealt >= warm })
	if e.transport != nil {
		e.warmTrips = e.transport.trips.Load()
	}
	return e, recs, nil
}

func querySpec(s client.Spec) serve.QuerySpec {
	q := serve.QuerySpec{Table: s.Table, GroupBy: s.GroupBy, TopK: s.TopK, KeyOrderOut: s.KeyOrderOut, As: s.As}
	if s.Filter != nil {
		q.Filter = &serve.FilterSpec{Col: s.Filter.Col, Op: s.Filter.Op, Value: s.Filter.Value}
	}
	return q
}

// drive runs the closed loop: clients goroutines, each sending its next
// request when the previous one has returned, until stop says so. stop sees
// the number of requests dealt so far. The records come back in schedule
// order.
func (e *serveEnv) drive(clients int, stop func(dealt int) bool) []record {
	var mu sync.Mutex
	var recs []record
	dealt := 0
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []record
			for {
				mu.Lock()
				if stop(dealt) {
					mu.Unlock()
					break
				}
				dealt++
				mu.Unlock()
				mine = append(mine, e.do(e.sched.next()))
			}
			mu.Lock()
			recs = append(recs, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	slices.SortFunc(recs, func(a, b record) int { return a.req.idx - b.req.idx })
	return recs
}

// driveFor runs the closed loop for the window.
func (e *serveEnv) driveFor(window time.Duration) ([]record, time.Duration) {
	t0 := time.Now()
	recs := e.drive(serveClients, func(int) bool { return time.Since(t0) >= window })
	return recs, time.Since(t0)
}

// tableRows is the row count of the table a request reads or writes.
func (d *serveData) tableRows(req request) int {
	switch {
	case req.class == classReload || req.spec.Table == tableSmall:
		return len(d.small[0])
	case req.spec.Table == tableLarge:
		return len(d.large)
	}
	return len(d.totals)
}

// check answers every record in plain Go, on this goroutine, and returns the
// number that failed (errored, refused, or differing from the reference) and
// the time the reference took. A query over t12 may have seen either side of
// a reload that overlapped it; it must match one of the epochs in [lo, hi].
func (d *serveData) check(workload string, seed uint64, recs []record) (failed int, refTime time.Duration) {
	for _, rec := range recs {
		if rec.req.class == classReload {
			t0 := time.Now()
			_ = slices.Clone(d.small[0]) // a plain table replace
			refTime += time.Since(t0)
			if rec.err != nil {
				failed++
				reportMismatch(workload, seed, rec.req.idx, rec.err.Error())
			}
			continue
		}
		var rows []oblivmc.Row
		switch rec.req.spec.Table {
		case tableSmall:
			rows = d.small[rec.lo%2]
		case tableLarge:
			rows = d.large
		default:
			rows = d.totals
		}
		t0 := time.Now()
		want := refSpec(rows, rec.req.spec)
		refTime += time.Since(t0)
		if rec.err != nil {
			failed++
			reportMismatch(workload, seed, rec.req.idx, rec.err.Error())
			continue
		}
		got := clientOut(rec.rows)
		ok := slices.Equal(got, want)
		if !ok && rec.req.spec.Table == tableSmall && rec.hi > rec.lo {
			ok = slices.Equal(got, refSpec(d.small[(rec.lo+1)%2], rec.req.spec))
		}
		if !ok {
			failed++
			reportMismatch(workload, seed, rec.req.idx, fmt.Sprintf("%s result differs from the reference", className[rec.req.class]))
		}
	}
	return failed, refTime
}

// latencies returns the records' durations in seconds: of one class, or of
// every class for numClasses. Failed requests have no latency.
func latencies(recs []record, class reqClass) []float64 {
	var out []float64
	for _, r := range recs {
		if r.err == nil && (class == numClasses || r.req.class == class) {
			out = append(out, r.dur.Seconds())
		}
	}
	return out
}
