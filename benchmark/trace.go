package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
)

// All tracing lives in the benchmark: spans are recorded around calls into a
// layer's public functions, kept in memory, and written out when the run
// ends. Spans inside the engine are a later change (ROADMAP item 1).

// span is one timed call. Parent is the span that caused it (0 = none);
// spans of one op share OpID. N is the call's size in elements (0 = none).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	OpID    int    `json:"op_id"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	N       int    `json:"n"`
}

func (s span) seconds() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

// tracer is the in-memory span list. Safe for concurrent use (serve_mix has
// two clients and the server's handler goroutines).
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(parent, op int, layer, name string, n int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, OpID: op, Layer: layer, Name: name, StartNs: now, N: n})
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// in runs fn inside a span and hands it the span's id as the parent of
// whatever fn opens.
func (t *tracer) in(parent, op int, layer, name string, n int, fn func(id int)) {
	id := t.begin(parent, op, layer, name, n)
	fn(id)
	t.end(id)
}

// perOp sums, per op, the seconds of the spans called name.
func (t *tracer) perOp(name string) map[int]float64 {
	out := make(map[int]float64)
	for _, s := range t.spans {
		if s.Name == name {
			out[s.OpID] += s.seconds()
		}
	}
	return out
}

// selfPerOp sums, per op, the self time of the spans called name: a span's
// duration minus the part its child spans cover.
func (t *tracer) selfPerOp(name string) map[int]float64 {
	children := make(map[int]float64)
	for _, s := range t.spans {
		children[s.Parent] += s.seconds()
	}
	out := make(map[int]float64)
	for _, s := range t.spans {
		if s.Name == name {
			out[s.OpID] += s.seconds() - children[s.ID]
		}
	}
	return out
}

// medianOf is the median over ops of a per-op sum.
func medianOf(perOp map[int]float64) float64 {
	v := make([]float64, 0, len(perOp))
	for _, x := range perOp {
		v = append(v, x)
	}
	return median(v)
}

// opStats returns, for the spans called name inside op, their count and the
// sum of their sizes.
func (t *tracer) opStats(name string, op int) (calls, elems int) {
	for _, s := range t.spans {
		if s.Name == name && s.OpID == op {
			calls++
			elems += s.N
		}
	}
	return calls, elems
}

// write dumps the span list as JSON lines to dir/trace-<workload>.jsonl.
func (t *tracer) write(dir, workload string) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write span %d: %w", s.ID, err)
		}
	}
	return w.Flush()
}

const spanSort = "SortScheduled"

// timedSorter decorates the sorter seam: every sorting pass of a replayed op
// becomes a span under the span that is executing (parent/op are set by the
// replay before it calls into the engine; sorts of one run are sequential).
type timedSorter struct {
	inner  obliv.ScheduledSorter
	tr     *tracer
	parent int
	op     int
}

func (s *timedSorter) Name() string { return s.inner.Name() }

func (s *timedSorter) Sort(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[obliv.Elem], lo, n int, key func(obliv.Elem) uint64) {
	id := s.tr.begin(s.parent, s.op, "sort", "Sort", n)
	s.inner.Sort(c, sp, a, lo, n, key)
	s.tr.end(id)
}

func (s *timedSorter) SortScheduled(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[obliv.Elem], ks *obliv.KeySchedule, scr *mem.Array[obliv.Elem], kscr *obliv.KeySchedule, lo, n int) {
	id := s.tr.begin(s.parent, s.op, "sort", spanSort, n)
	s.inner.SortScheduled(c, sp, a, ks, scr, kscr, lo, n)
	s.tr.end(id)
}

// timedTransport decorates the client's http.RoundTripper: one span per HTTP
// exchange, plus the counts busy_frac and client.retries are made of.
type timedTransport struct {
	inner http.RoundTripper
	tr    *tracer
	trips atomic.Int64
	busy  atomic.Int64 // 429 and 503 replies
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.tr.begin(0, 0, "client", "RoundTrip "+req.URL.Path, 0)
	resp, err := t.inner.RoundTrip(req)
	t.tr.end(id)
	t.trips.Add(1)
	if err == nil && (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable) {
		t.busy.Add(1)
	}
	return resp, err
}

// timedHandler decorates the server's http.Handler: one span per request as
// the server sees it.
func timedHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := tr.begin(0, 0, "serve", "ServeHTTP "+r.URL.Path, 0)
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}
