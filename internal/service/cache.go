package service

import (
	"sync"
	"time"
)

// resultCache is the fingerprint-keyed result cache: key = engine
// configuration fingerprint + graph content hash + the workload cell
// (see cacheKey in jobs.go), value = the fully rendered result JSON of a
// completed run. Storing rendered bytes — not the report — is what makes
// the warm-hit guarantee trivial: a cache hit serves the cold run's exact
// bytes, so the stats dump is bit-identical by construction, not by
// re-serialization luck. Only complete, error-free results are inserted
// (partial reports depend on when the stop landed, so caching them would
// serve nondeterministic truncations as truth).
//
// Eviction is cost-aware over a fixed entry budget: GreedyDual-Size with
// a frequency term (GDSF), every entry counting as size 1. Each entry
// records its cost, the wall time of the run that produced it, and its
// hits, starting at 1. Its priority is L + hits × cost, where L is the
// priority of the last entry evicted, and a hit recomputes it against
// the current L. An insert that takes the cache over budget evicts the
// lowest-priority entry, the least recently used on a tie, so equal
// costs and no hits evict in LRU order. The new entry competes like any
// other: a result cheaper to recompute than everything resident is
// dropped at once. Raising L to each victim's priority ages the entries
// that stay: a costly entry that stops being hit is overtaken by newer
// ones in time.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*cacheEntry
	// floor is L, the priority of the last entry evicted, in seconds.
	floor float64
	// clock stamps each use, so the smallest stamp is the least recent.
	clock uint64
}

type cacheEntry struct {
	key      string
	value    []byte
	cost     time.Duration
	hits     uint64
	priority float64
	used     uint64
}

func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		capacity = 256
	}
	return &resultCache{cap: capacity, entries: make(map[string]*cacheEntry)}
}

// touch recomputes e's priority against the current floor and marks it
// the most recently used entry.
func (c *resultCache) touch(e *cacheEntry) {
	e.priority = c.floor + float64(e.hits)*e.cost.Seconds()
	c.clock++
	e.used = c.clock
}

// Get returns the cached bytes for key with the recorded cost of the run
// that produced them, counts the hit, and refreshes the entry's priority.
// The returned slice is shared — callers must not mutate it (handlers
// only write it to the wire).
func (c *resultCache) Get(key string) ([]byte, time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return nil, 0, false
	}
	e.hits++
	c.touch(e)
	return e.value, e.cost, true
}

// Put inserts key with the cost of the run that produced value, and
// returns how many entries were evicted: 0 or 1, the new entry included
// when it is the one dropped (reported so the server's eviction counter
// stays exact). A Put of a resident key replaces its value and cost,
// keeps its hit count and evicts nothing.
//
// The victim is found by a scan over the resident entries. It runs once
// per completed miss, which has already cost a simulation, so the budget
// (256 entries by default) needs no heap.
func (c *resultCache) Put(key string, value []byte, cost time.Duration) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		e.value, e.cost = value, cost
		c.touch(e)
		return 0
	}
	e := &cacheEntry{key: key, value: value, cost: cost, hits: 1}
	c.touch(e)
	c.entries[key] = e
	if len(c.entries) <= c.cap {
		return 0
	}
	var victim *cacheEntry
	for _, e := range c.entries {
		if victim == nil || e.priority < victim.priority ||
			e.priority == victim.priority && e.used < victim.used {
			victim = e
		}
	}
	c.floor = victim.priority
	delete(c.entries, victim.key)
	return 1
}

// Len returns the resident entry count.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
