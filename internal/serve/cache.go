package serve

import (
	"container/list"
	"sync"

	"oblivmc"
)

// cached is one materialized query result: the table (carrying its
// sorted-by token) and the stats of the run that produced it.
type cached struct {
	key  string
	tab  oblivmc.Table
	plan string
}

// resultCache is the cross-query materialized-result cache: canonical
// key → result table, LRU-bounded. Keys (spec.go compiled.key) are pure
// functions of request-visible data — the canonical query spec and the
// name@version of every referenced table — so a hit/miss, and the trace
// difference it causes (zero passes vs the full plan), reveals only what
// the request stream already reveals. Version-embedded keys make re-load
// invalidation structural: entries referencing a replaced table can never
// be keyed again and age out of the LRU.
type resultCache struct {
	mu  sync.Mutex
	max int
	lru *list.List // front = most recent; values are *cached
	at  map[string]*list.Element
}

func newResultCache(max int) *resultCache {
	if max <= 0 {
		max = 128
	}
	return &resultCache{max: max, lru: list.New(), at: map[string]*list.Element{}}
}

func (c *resultCache) get(key string) (cached, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.at[key]
	if !ok {
		return cached{}, false
	}
	c.lru.MoveToFront(el)
	return *el.Value.(*cached), true
}

func (c *resultCache) put(e cached) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.at[e.key]; ok {
		el.Value = &e
		c.lru.MoveToFront(el)
		return
	}
	c.at[e.key] = c.lru.PushFront(&e)
	for c.lru.Len() > c.max {
		old := c.lru.Back()
		delete(c.at, old.Value.(*cached).key)
		c.lru.Remove(old)
	}
}

// len reports the entry count (tests).
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
