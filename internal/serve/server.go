package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oblivmc"
	"oblivmc/client"
)

// Admission errors.
var (
	// ErrBusy is returned when no session lane frees up within the queue
	// timeout — the bounded-admission backpressure signal (HTTP 503).
	ErrBusy = errors.New("serve: server busy, admission queue timed out")
	// ErrDraining is returned for queries arriving after Shutdown began.
	ErrDraining = errors.New("serve: server draining")
)

// Options configures a Server.
type Options struct {
	// Lanes bounds the requests in flight: each lane is one
	// oblivmc.Session (persistent fork-join pool, address space, arena,
	// shuffle sorter) that runs one spec at a time — a query or a graph
	// operator alike. 0 = GOMAXPROCS/2, min 1 — runs are internally
	// parallel, so a few lanes saturate the machine.
	Lanes int
	// QueueTimeout bounds how long an admitted request waits for an idle
	// lane before failing with ErrBusy (0 = 5s).
	QueueTimeout time.Duration
	// QueryTimeout bounds one query's execution once it holds a lane
	// (0 = unlimited). An expired query aborts cooperatively at its next
	// public-shape checkpoint and fails with oblivmc.ErrDeadline
	// (HTTP 504); its session stays healthy and goes back to the idle
	// lanes.
	QueryTimeout time.Duration
	// CacheSize bounds the materialized-result cache entries (0 = 128).
	CacheSize int
	// Exec is the execution config every lane session runs under. Its
	// Workers field sizes each lane's pool (0 = GOMAXPROCS split evenly
	// across lanes, min 1).
	Exec oblivmc.Config
}

// Server is the oblivious analytics server: registry + result cache + a
// channel of idle lane sessions. It is the transport-independent core —
// Execute/ExplainSpec/LoadTable are plain methods the tests drive
// directly — with an http.Handler surface on top. Every spec, relational
// or graph, takes the one path through ExecuteCtx and runs on its lane's
// session.
type Server struct {
	reg   *Registry
	cache *resultCache
	opts  Options

	// lanes holds the idle lane sessions (capacity Lanes): a request
	// receives one to run on and sends it back, so the channel is both the
	// admission bound and the pool. Lanes are FIFO by return order, with
	// no size affinity — the session caches only grow, so any lane that has
	// served a size is warmed for it.
	lanes chan *oblivmc.Session

	drainMu  sync.Mutex
	draining bool
	inflight sync.WaitGroup

	// ctx is canceled at the drain deadline; every admitted cache-miss
	// request runs under a context tied to it and is counted in pending
	// until it finishes, queued or running.
	ctx     context.Context
	stop    context.CancelFunc
	pending atomic.Int64

	// running / peak gauge the queries concurrently holding lanes — the
	// admission-bound observable the stress test asserts on.
	running atomic.Int64
	peak    atomic.Int64
}

// NewServer builds a server and its lane sessions.
func NewServer(opts Options) *Server {
	if opts.Lanes <= 0 {
		opts.Lanes = runtime.GOMAXPROCS(0) / 2
		if opts.Lanes < 1 {
			opts.Lanes = 1
		}
	}
	if opts.QueueTimeout <= 0 {
		opts.QueueTimeout = 5 * time.Second
	}
	cfg := opts.Exec
	if cfg.Mode == oblivmc.ModeParallel && cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0) / opts.Lanes
		if cfg.Workers < 1 {
			cfg.Workers = 1
		}
	}
	opts.Exec = cfg
	s := &Server{
		reg:   NewRegistry(),
		cache: newResultCache(opts.CacheSize),
		opts:  opts,
		lanes: make(chan *oblivmc.Session, opts.Lanes),
	}
	s.ctx, s.stop = context.WithCancel(context.Background())
	for i := 0; i < opts.Lanes; i++ {
		s.lanes <- oblivmc.NewSession(cfg)
	}
	return s
}

// Registry exposes the server's table registry.
func (s *Server) Registry() *Registry { return s.reg }

// Lanes returns the admission bound.
func (s *Server) Lanes() int { return s.opts.Lanes }

// WorkersPerLane returns the resolved fork-join pool size each lane
// session runs with (1 outside ModeParallel). The machine's cores are
// split lanes ways by default, clamped to at least one worker per lane
// when lanes exceed GOMAXPROCS.
func (s *Server) WorkersPerLane() int {
	if s.opts.Exec.Mode == oblivmc.ModeParallel && s.opts.Exec.Workers > 0 {
		return s.opts.Exec.Workers
	}
	return 1
}

// PeakConcurrency returns the high-water mark of queries concurrently
// holding lanes since startup (always <= Lanes — the admission-control
// invariant the stress test asserts).
func (s *Server) PeakConcurrency() int { return int(s.peak.Load()) }

// Running returns the queries currently holding lanes — the gauge the
// chaos test asserts returns to zero (no leaked lanes) after a storm of
// cancellations, timeouts, and injected panics.
func (s *Server) Running() int { return int(s.running.Load()) }

// checkout receives an idle lane session, blocking up to the queue timeout
// (ErrBusy) or until ctx is done (the queue-abort errors).
func (s *Server) checkout(ctx context.Context) (*oblivmc.Session, error) {
	var sess *oblivmc.Session
	select {
	case sess = <-s.lanes:
	default:
		t := time.NewTimer(s.opts.QueueTimeout)
		defer t.Stop()
		select {
		case sess = <-s.lanes:
		case <-t.C:
			return nil, ErrBusy
		case <-ctx.Done():
			return nil, queueAbortErr(ctx)
		}
	}
	n := s.running.Add(1)
	for {
		p := s.peak.Load()
		if n <= p || s.peak.CompareAndSwap(p, n) {
			break
		}
	}
	return sess, nil
}

// release sends the lane session back after a run. A poisoned one (the run
// returned ErrInternal: its session panicked, so its arena and sorter state
// are suspect) is closed and a fresh session goes back in its place, so a
// panic never shrinks capacity.
func (s *Server) release(sess *oblivmc.Session, err error) {
	if errors.Is(err, oblivmc.ErrInternal) {
		sess.Close()
		sess = oblivmc.NewSession(s.opts.Exec)
	}
	s.running.Add(-1)
	s.lanes <- sess
}

// queryCtx derives the execution context of one admitted cache-miss
// request: the caller's context (client disconnect), the query timeout, and
// the server context that ShutdownDrain cancels at its deadline. The request
// counts in pending until the returned func runs.
func (s *Server) queryCtx(ctx context.Context) (context.Context, func()) {
	var cancel context.CancelFunc
	if s.opts.QueryTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.opts.QueryTimeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	unlink := context.AfterFunc(s.ctx, cancel)
	s.pending.Add(1)
	return ctx, func() {
		s.pending.Add(-1)
		unlink()
		cancel()
	}
}

// queueAbortErr types a context abort observed while still queued for a
// lane: deadline → ErrDeadline, disconnect/cancel → ErrCanceled. No
// execution happened, so there is no pass site to report.
func queueAbortErr(ctx context.Context) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return fmt.Errorf("%w (while queued for a lane)", oblivmc.ErrDeadline)
	}
	return fmt.Errorf("%w (while queued for a lane)", oblivmc.ErrCanceled)
}

// admit registers one in-flight request, failing when draining.
func (s *Server) admit() error {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining {
		return ErrDraining
	}
	s.inflight.Add(1)
	return nil
}

// Shutdown drains the server: new queries fail with ErrDraining, in-
// flight queries finish, then every lane session is closed. Idempotent.
func (s *Server) Shutdown() { s.ShutdownDrain(0) }

// ShutdownDrain is Shutdown with a drain deadline: in-flight queries get
// up to d to finish on their own. At the deadline the server context is
// canceled, so every straggler — an admitted cache-miss request still
// running or still queued for a lane — aborts (a running one cooperatively
// at its next public-shape checkpoint) and its caller sees ErrCanceled.
// The stragglers are then awaited and all Lanes sessions received back and
// closed, so the method never returns with a query still holding a lane.
// d <= 0 waits indefinitely. Returns the number of stragglers canceled.
// Idempotent: later calls return 0 immediately.
func (s *Server) ShutdownDrain(d time.Duration) int {
	s.drainMu.Lock()
	if s.draining {
		s.drainMu.Unlock()
		return 0
	}
	s.draining = true
	s.drainMu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(drained)
	}()
	defer s.stop()
	canceled := 0
	if d > 0 {
		t := time.NewTimer(d)
		select {
		case <-drained:
			t.Stop()
		case <-t.C:
			canceled = int(s.pending.Load())
			s.stop()
		}
	}
	<-drained
	for i := 0; i < s.opts.Lanes; i++ {
		(<-s.lanes).Close()
	}
	return canceled
}

// Stats is the public execution accounting of one served query (the wire
// type the client reads).
type Stats = client.Stats

// Result is the outcome of one Execute.
type Result struct {
	Table oblivmc.Table
	Stats Stats
	// StoredAs / StoredVersion report the registry binding when the spec
	// carried As.
	StoredAs      string
	StoredVersion int
	// Report is the run's metered cost profile and trace fingerprint: set
	// only when the lanes run ModeMetered and the spec missed the cache.
	// It stays off the wire.
	Report *oblivmc.Report
}

// Response is the result's wire form (the POST /v1/query body).
func (r Result) Response() QueryResponse {
	wide := r.Table.WideRows()
	rows := make([]RowJSON, len(wide))
	for i, w := range wide {
		rows[i] = RowJSON{Keys: w.Keys, Val: w.Val}
	}
	return QueryResponse{
		Rows: rows, Stats: r.Stats,
		StoredAs: r.StoredAs, StoredVersion: r.StoredVersion,
	}
}

// Execute runs one spec — relational or graph — end to end: compile
// against the registry, serve from the result cache when the canonical key
// hits, otherwise check out a lane and run on its session, then
// materialize (cache + optional registry store). Safe for concurrent use;
// concurrency is bounded by the lane count.
func (s *Server) Execute(spec QuerySpec) (Result, error) {
	return s.ExecuteCtx(context.Background(), spec)
}

// ExecuteCtx is Execute under a caller context: the query aborts
// cooperatively (at its next public-shape checkpoint) when ctx is
// canceled — client disconnect via the HTTP handler — or when the
// server's QueryTimeout expires, surfacing oblivmc.ErrCanceled or
// oblivmc.ErrDeadline respectively. A run that panics surfaces
// oblivmc.ErrInternal and the session that ran it is retired: a fresh one
// goes back to the idle lanes in its place.
func (s *Server) ExecuteCtx(ctx context.Context, spec QuerySpec) (Result, error) {
	if err := s.admit(); err != nil {
		return Result{}, err
	}
	defer s.inflight.Done()

	c, err := compile(spec, s.reg)
	if err != nil {
		return Result{}, err
	}
	var res Result
	if hit, ok := s.cache.get(c.key); ok {
		res = Result{
			Table: hit.tab,
			Stats: Stats{Cached: true, Plan: hit.plan, Order: hit.tab.Order().String()},
		}
	} else {
		qctx, done := s.queryCtx(ctx)
		defer done()
		sess, err := s.checkout(qctx)
		if err != nil {
			return Result{}, err
		}
		out, stats, err := c.run(qctx, sess)
		s.release(sess, err)
		if err != nil {
			return Result{}, err
		}
		s.cache.put(cached{key: c.key, tab: out, plan: stats.Plan})
		res = Result{
			Table: out,
			Stats: Stats{
				SortPasses:     stats.SortPasses,
				ColdSortPasses: stats.ColdSortPasses,
				Plan:           stats.Plan,
				Order:          stats.Order.String(),
			},
			Report: stats.Report,
		}
	}
	if spec.As != "" {
		v, err := s.reg.Load(spec.As, res.Table, true)
		if err != nil {
			return Result{}, err
		}
		res.StoredAs, res.StoredVersion = spec.As, v
	}
	return res, nil
}

// ExplainSpec renders the order-aware plan the spec would execute,
// without running it.
func (s *Server) ExplainSpec(spec QuerySpec) (string, error) {
	c, err := compile(spec, s.reg)
	if err != nil {
		return "", err
	}
	return c.explain()
}

// LoadTable validates rows and binds them in the registry.
func (s *Server) LoadTable(name string, rows []oblivmc.WideRow, replace bool) (TableInfo, error) {
	tab, err := oblivmc.NewWideTable(rows)
	if err != nil {
		return TableInfo{}, err
	}
	v, err := s.reg.Load(name, tab, replace)
	if err != nil {
		return TableInfo{}, err
	}
	return infoOf(name, v, tab), nil
}

// ---- HTTP surface ----

// RowJSON is the wire form of one row.
type RowJSON = client.Row

// LoadRequest is the POST /v1/tables body.
type LoadRequest struct {
	Name    string    `json:"name"`
	Rows    []RowJSON `json:"rows"`
	Replace bool      `json:"replace,omitempty"`
}

// QueryResponse is the POST /v1/query body.
type QueryResponse = client.QueryResult

// ExplainResponse is the POST /v1/explain body.
type ExplainResponse struct {
	Plan string `json:"plan"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// statusOf maps server and library errors to HTTP statuses:
//
//	429 ErrBusy        admission queue timed out — retry with backoff
//	503 ErrDraining    server shutting down — retry against a replacement
//	504 ErrDeadline    query exceeded QueryTimeout — aborted at a checkpoint
//	500 ErrInternal    execution panicked — the lane was retired and rebuilt
//	499 ErrCanceled    caller went away (nginx convention; rarely observed,
//	                   the disconnected client reads nothing)
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrNoSuchTable):
		return http.StatusNotFound
	case errors.Is(err, ErrTableExists):
		return http.StatusConflict
	case errors.Is(err, ErrBusy):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, oblivmc.ErrDeadline):
		return http.StatusGatewayTimeout
	case errors.Is(err, oblivmc.ErrInternal):
		return http.StatusInternalServerError
	case errors.Is(err, oblivmc.ErrCanceled):
		return 499 // client closed request
	case errors.Is(err, ErrBadSpec):
		return http.StatusBadRequest
	default:
		return http.StatusUnprocessableEntity
	}
}

// decodeSpec decodes a QuerySpec strictly: an unknown field — a misspelled
// or retired clause — is a bad spec naming the field, never a clause
// silently dropped from the query that then runs.
func decodeSpec(body io.Reader) (QuerySpec, error) {
	var spec QuerySpec
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return QuerySpec{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return spec, nil
}

func writeErr(w http.ResponseWriter, err error) {
	writeJSON(w, statusOf(err), errorResponse{Error: err.Error()})
}

// Handler returns the server's HTTP surface:
//
//	GET    /v1/healthz        liveness + lane/table counts
//	GET    /v1/tables         registry listing (public metadata)
//	POST   /v1/tables         load (LoadRequest)
//	DELETE /v1/tables/{name}  drop
//	POST   /v1/query          execute a QuerySpec
//	POST   /v1/explain        render a QuerySpec's plan
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "ok", "lanes": s.opts.Lanes, "tables": len(s.reg.List()),
		})
	})
	mux.HandleFunc("/v1/tables", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			writeJSON(w, http.StatusOK, s.reg.List())
		case http.MethodPost:
			// Strict like decodeSpec: a misspelled "replace" or "rows" is
			// a 400 naming the field, not a silent non-replace or empty load.
			var req LoadRequest
			dec := json.NewDecoder(r.Body)
			dec.DisallowUnknownFields()
			if err := dec.Decode(&req); err != nil {
				writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
				return
			}
			rows := make([]oblivmc.WideRow, len(req.Rows))
			for i, rr := range req.Rows {
				rows[i] = oblivmc.WideRow{Keys: rr.Keys, Val: rr.Val}
			}
			info, err := s.LoadTable(req.Name, rows, req.Replace)
			if err != nil {
				writeErr(w, err)
				return
			}
			writeJSON(w, http.StatusOK, info)
		default:
			w.WriteHeader(http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc("/v1/tables/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodDelete {
			w.WriteHeader(http.StatusMethodNotAllowed)
			return
		}
		name := strings.TrimPrefix(r.URL.Path, "/v1/tables/")
		if err := s.reg.Drop(name); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"dropped": name})
	})
	mux.HandleFunc("/v1/query", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.WriteHeader(http.StatusMethodNotAllowed)
			return
		}
		spec, err := decodeSpec(r.Body)
		if err != nil {
			writeErr(w, err)
			return
		}
		res, err := s.ExecuteCtx(r.Context(), spec)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res.Response())
	})
	mux.HandleFunc("/v1/explain", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.WriteHeader(http.StatusMethodNotAllowed)
			return
		}
		spec, err := decodeSpec(r.Body)
		if err != nil {
			writeErr(w, err)
			return
		}
		plan, err := s.ExplainSpec(spec)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, ExplainResponse{Plan: plan})
	})
	return mux
}

// String renders the admission state (debugging).
func (s *Server) String() string {
	return fmt.Sprintf("serve.Server{lanes=%d idle=%d tables=%d cache=%d}",
		s.opts.Lanes, len(s.lanes), len(s.reg.List()), s.cache.len())
}
