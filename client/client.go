// Package client is the Go client of the oblivserve HTTP/JSON surface
// (internal/serve): load and drop relations, run declarative query specs,
// and read the per-query execution stats the server reports — the cached
// flag and executed sort-pass counts the cross-query planner is judged
// by. The wire structs declared here are the server's too (internal/serve
// aliases them), so the two ends cannot drift; both are exercised against
// each other by the serve-smoke CI job.
package client

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// Row is one (keys..., value) record on the wire.
type Row struct {
	Keys []uint64 `json:"keys"`
	Val  uint64   `json:"val"`
}

// Filter is the declarative filter clause. Col selects the compared
// column: a key column by index, or the value column when Col == -1. A
// key-column filter is declared key-only to the planner (it drops whole
// key groups), which is what lets it push below Distinct/GroupBy.
type Filter struct {
	Col   int    `json:"col"`
	Op    string `json:"op"` // eq, ne, lt, le, gt, ge
	Value uint64 `json:"value"`
}

// Join is the declarative join clause: the named registered relation
// becomes the query's join-left side, MaxOut its public output capacity.
// JoinCap may name the "auto" capacity mode instead of MaxOut: the join
// sizes its own output at the worst-case match bound (which cannot
// overflow), revealing that bound as public shape. Setting both is an
// error.
type Join struct {
	Table   string `json:"table"`
	MaxOut  int    `json:"max_out,omitempty"`
	JoinCap string `json:"join_cap,omitempty"`
}

// Spec is the wire form of one query: a declarative mirror of
// oblivmc.Query with relation references by registered name. The server
// decodes it strictly — an unknown field is a bad spec, never a clause
// silently dropped.
type Spec struct {
	// Table names the queried relation.
	Table string `json:"table"`
	// Join, Filter, Distinct, GroupBy, TopK mirror oblivmc.Query. GroupBy
	// is the aggregation name: sum, count, min, max, avg, var.
	Join     *Join   `json:"join,omitempty"`
	Filter   *Filter `json:"filter,omitempty"`
	Distinct bool    `json:"distinct,omitempty"`
	GroupBy  string  `json:"group_by,omitempty"`
	TopK     int     `json:"top_k,omitempty"`
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

// Stats is the public execution accounting of one served query.
type Stats struct {
	// Cached reports a result-cache hit: the query ran zero oblivious
	// sorts (or any other passes) — the response is the materialization.
	Cached bool `json:"cached"`
	// SortPasses is the executed sort-pass count, counted where each pass
	// starts, for queries and graph operators alike (0 on a cache hit).
	SortPasses int `json:"sort_passes"`
	// ColdSortPasses is the plan's cost with no input-order token — the
	// baseline the cross-query skip is measured against.
	ColdSortPasses int `json:"cold_sort_passes"`
	// Plan is the rendered plan of the executed (or cached) query.
	Plan string `json:"plan"`
	// Order is the result's sorted-by token.
	Order string `json:"order"`
}

// TableInfo is the public metadata of one loaded relation: public shape
// only (Order is the sorted-by token's name).
type TableInfo struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	Rows    int    `json:"rows"`
	Width   int    `json:"width"`
	Order   string `json:"order"`
}

// QueryResult is one query's rows plus stats.
type QueryResult struct {
	Rows          []Row  `json:"rows"`
	Stats         Stats  `json:"stats"`
	StoredAs      string `json:"stored_as,omitempty"`
	StoredVersion int    `json:"stored_version,omitempty"`
}

// RetryPolicy bounds the client's automatic retries. Retries happen on
// HTTP 429 (admission queue full) and 503 (server draining) — statuses
// the server only returns before executing anything — and, for
// idempotent calls, on transport errors (connection refused/reset, where
// the request may never have reached a server). Backoff is exponential
// with full jitter: attempt k sleeps a uniform draw from
// (0, min(Base·2^k, Max)].
type RetryPolicy struct {
	// MaxRetries is the number of re-attempts after the first try
	// (0 = no retries).
	MaxRetries int
	// Base is the first backoff ceiling (0 = 50ms).
	Base time.Duration
	// Max caps the backoff ceiling (0 = 2s).
	Max time.Duration
}

// DefaultRetryPolicy is what New installs: 4 retries, 50ms..2s jittered
// exponential backoff — enough to ride out a lane draining or a short
// admission storm without hammering a loaded server.
var DefaultRetryPolicy = RetryPolicy{MaxRetries: 4, Base: 50 * time.Millisecond, Max: 2 * time.Second}

// DefaultTimeout bounds one HTTP call of a client built by New.
// Oblivious queries run full padded passes, so the default is generous;
// use NewWithHTTP to supply your own bound (or none).
const DefaultTimeout = 5 * time.Minute

// Client talks to one oblivserve instance.
type Client struct {
	base  string
	hc    *http.Client
	retry RetryPolicy
}

// New returns a client for the server at base (e.g.
// "http://localhost:8344") with DefaultTimeout on the underlying
// http.Client and DefaultRetryPolicy installed.
func New(base string) *Client {
	return NewWithHTTP(base, &http.Client{Timeout: DefaultTimeout})
}

// NewWithHTTP is New with a caller-supplied http.Client (still with the
// default retry policy; override via WithRetry).
func NewWithHTTP(base string, hc *http.Client) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: hc, retry: DefaultRetryPolicy}
}

// WithRetry returns a copy of the client using policy p (a zero policy
// disables retries).
func (c *Client) WithRetry(p RetryPolicy) *Client {
	cc := *c
	cc.retry = p
	return &cc
}

// apiError is a non-2xx server response.
type apiError struct {
	Status int
	Msg    string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("oblivserve: %s (HTTP %d)", e.Msg, e.Status)
}

// retryableStatus reports the statuses the server returns without having
// executed anything, so a retry can never double-apply an effect.
func retryableStatus(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// backoff sleeps the full-jitter exponential delay for re-attempt k
// (0-based).
func (p RetryPolicy) backoff(k int) {
	base, max := p.Base, p.Max
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base << k
	if d > max || d <= 0 {
		d = max
	}
	time.Sleep(time.Duration(1 + rand.Int63n(int64(d))))
}

// do runs one API call with the client's retry policy. idempotent marks
// calls safe to re-send after a transport error, where the request may
// have executed without the client learning the outcome; non-idempotent
// calls (Load without replace) only retry on the pre-execution statuses.
func (c *Client) do(method, path string, in, out any, idempotent bool) error {
	var payload []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		payload = b
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		lastErr = c.doOnce(method, path, payload, out)
		if lastErr == nil || attempt >= c.retry.MaxRetries {
			return lastErr
		}
		var ae *apiError
		switch {
		case errors.As(lastErr, &ae):
			if !retryableStatus(ae.Status) {
				return lastErr
			}
		case !idempotent:
			return lastErr
		}
		c.retry.backoff(attempt)
	}
}

func (c *Client) doOnce(method, path string, payload []byte, out any) error {
	var req *http.Request
	var err error
	if payload != nil {
		req, err = http.NewRequest(method, c.base+path, bytes.NewReader(payload))
	} else {
		req, err = http.NewRequest(method, c.base+path, nil)
	}
	if err != nil {
		return err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		msg := resp.Status
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			msg = e.Error
		}
		return &apiError{Status: resp.StatusCode, Msg: msg}
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Health checks liveness (single shot — WaitReady owns the retrying).
func (c *Client) Health() error {
	return c.doOnce(http.MethodGet, "/v1/healthz", nil, nil)
}

// WaitReady polls Health until the server answers or the timeout lapses,
// backing off from 10ms up to 500ms between probes.
func (c *Client) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	delay := 10 * time.Millisecond
	for {
		err := c.Health()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("oblivserve: not ready after %v: %w", timeout, err)
		}
		time.Sleep(delay)
		if delay *= 2; delay > 500*time.Millisecond {
			delay = 500 * time.Millisecond
		}
	}
}

// Load binds rows to name on the server. Without replace a transport
// error is not retried: the first attempt may have bound the table, and a
// blind re-send would misreport ErrTableExists.
func (c *Client) Load(name string, rows []Row, replace bool) (TableInfo, error) {
	var info TableInfo
	err := c.do(http.MethodPost, "/v1/tables", struct {
		Name    string `json:"name"`
		Rows    []Row  `json:"rows"`
		Replace bool   `json:"replace,omitempty"`
	}{name, rows, replace}, &info, replace)
	return info, err
}

// List returns the loaded relations' metadata.
func (c *Client) List() ([]TableInfo, error) {
	var out []TableInfo
	err := c.do(http.MethodGet, "/v1/tables", nil, &out, true)
	return out, err
}

// Drop unbinds name.
func (c *Client) Drop(name string) error {
	return c.do(http.MethodDelete, "/v1/tables/"+url.PathEscape(name), nil, nil, true)
}

// Query executes spec. Queries are read-only against the registry (an As
// store replaces, so re-running is safe), hence retried like idempotent
// calls.
func (c *Client) Query(spec Spec) (QueryResult, error) {
	var out QueryResult
	err := c.do(http.MethodPost, "/v1/query", spec, &out, true)
	return out, err
}

// Explain renders spec's order-aware plan without executing it.
func (c *Client) Explain(spec Spec) (string, error) {
	var out struct {
		Plan string `json:"plan"`
	}
	err := c.do(http.MethodPost, "/v1/explain", spec, &out, true)
	return out.Plan, err
}
