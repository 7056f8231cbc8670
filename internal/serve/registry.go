// Package serve is the long-running oblivious analytics server: a
// registry of loaded relations, a lane pool of reusable oblivmc.Sessions
// (persistent fork-join pools, arenas, and shuffle sorters) with bounded
// admission — every request, query or graph operator, runs on its lane's
// session — and a cross-query result cache keyed on public request
// shapes. The HTTP layer (Server) is a thin JSON surface over these
// pieces; the obliviousness argument lives with them: every cache and
// planning decision is a function of request-visible data — table names,
// versions, row counts, key widths, and canonical query specs — never of
// relation contents.
package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"oblivmc"
	"oblivmc/client"
)

// Typed registry errors (matchable with errors.Is across the HTTP
// boundary's status mapping).
var (
	// ErrTableExists is returned by Load without replace when the name is
	// already bound.
	ErrTableExists = errors.New("serve: table already exists")
	// ErrNoSuchTable is returned when a query, drop, or join references an
	// unbound table name.
	ErrNoSuchTable = errors.New("serve: no such table")
)

// TableInfo is the public metadata of one registered table (the wire type
// the client reads) — everything in it is public shape (names, counts,
// widths, versions, order tokens), never contents.
type TableInfo = client.TableInfo

// infoOf renders one binding's metadata.
func infoOf(name string, version int, tab oblivmc.Table) TableInfo {
	return TableInfo{
		Name: name, Version: version, Rows: tab.Len(), Width: tab.Width(),
		Order: tab.Order().String(),
	}
}

type tableEntry struct {
	tab     oblivmc.Table
	version int
}

// Registry is the server's name → relation binding, safe for concurrent
// use. Every binding carries a monotonically increasing version: loading
// over an existing name (replace) bumps it, so cache keys embedding
// name@version can never alias a stale relation — the re-load
// invalidation is structural, not a scan.
type Registry struct {
	mu     sync.RWMutex
	tables map[string]*tableEntry
	// versions survives drops: re-loading a dropped name continues its
	// version sequence instead of restarting at 1, keeping old cache keys
	// dead forever.
	versions map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{tables: map[string]*tableEntry{}, versions: map[string]int{}}
}

// Load binds tab to name. With replace false a bound name fails with
// ErrTableExists; with replace true the binding is overwritten and the
// version bumped (dependent cache entries die with the old version).
// Returns the bound version.
func (r *Registry) Load(name string, tab oblivmc.Table, replace bool) (int, error) {
	if name == "" {
		return 0, fmt.Errorf("serve: empty table name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.tables[name]; ok && !replace {
		return 0, fmt.Errorf("%w: %q", ErrTableExists, name)
	}
	v := r.versions[name] + 1
	r.versions[name] = v
	r.tables[name] = &tableEntry{tab: tab, version: v}
	return v, nil
}

// Get returns the table bound to name and its version.
func (r *Registry) Get(name string) (oblivmc.Table, int, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.tables[name]
	if !ok {
		return oblivmc.Table{}, 0, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	return e.tab, e.version, nil
}

// Drop unbinds name.
func (r *Registry) Drop(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.tables[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	delete(r.tables, name)
	return nil
}

// List returns the metadata of every binding, name-sorted.
func (r *Registry) List() []TableInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]TableInfo, 0, len(r.tables))
	for name, e := range r.tables {
		out = append(out, infoOf(name, e.version, e.tab))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
