package service

import (
	"hash/maphash"
	"sync"
	"time"
)

// historyWindow is how many lookups, per entry of the cache's budget, make
// one window of the request history: at the end of each window every
// count halves. The replay in cache_test.go chose it: shorter windows
// forget the costly keys of the Zipf tail between their requests, and a
// window twice as long gains under 2%.
const historyWindow = 40

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
// Admission and eviction weigh how often a key is requested by what a
// miss on it costs, over a fixed entry budget. Every Get counts its key
// in a request history kept apart from the entries, so a key's count
// survives its eviction. Every historyWindow × budget lookups all counts
// halve and keys at zero leave the history: popularity that stopped
// fades, and the history holds about one window of keys. An entry's
// cost is the wall time of the run that produced it. A Put into a full
// cache finds the resident entry with the lowest count × cost, the least
// recently used on a tie, and replaces it only if the new result's own
// count × cost is higher; otherwise the new result is dropped. This is
// TinyLFU's admission rule (Einziger, Friedman & Manes 2017) with each
// count weighted by its key's cost.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*cacheEntry
	// counts is the request history, keyed by a 64-bit hash of the cache
	// key. A collision merges two keys' counts, which can change only
	// which entry is evicted, never what a hit serves.
	counts map[uint64]uint32
	seed   maphash.Seed
	// lookups counts the Gets since the last halving; window is how
	// many end a window.
	lookups, window int
	// clock stamps each use, so the smallest stamp is the least recent.
	clock uint64
}

type cacheEntry struct {
	key   string
	hash  uint64
	value []byte
	cost  time.Duration
	used  uint64
}

func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		capacity = 256
	}
	return &resultCache{
		cap:     capacity,
		entries: make(map[string]*cacheEntry),
		counts:  make(map[uint64]uint32),
		seed:    maphash.MakeSeed(),
		window:  historyWindow * capacity,
	}
}

// count records one request for the key hashed to h and, at the end of
// a window, halves every count and forgets the keys that reach zero.
func (c *resultCache) count(h uint64) {
	c.counts[h]++
	if c.lookups++; c.lookups < c.window {
		return
	}
	c.lookups = 0
	for k, n := range c.counts {
		if n /= 2; n == 0 {
			delete(c.counts, k)
		} else {
			c.counts[k] = n
		}
	}
}

// worth is a key's count × cost, in request-seconds.
func (c *resultCache) worth(h uint64, cost time.Duration) float64 {
	return float64(c.counts[h]) * cost.Seconds()
}

// Get counts a request for key and returns the cached bytes with the
// recorded cost of the run that produced them. The returned slice is
// shared — callers must not mutate it (handlers only write it to the
// wire).
func (c *resultCache) Get(key string) ([]byte, time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.count(maphash.String(c.seed, key))
	e, ok := c.entries[key]
	if !ok {
		return nil, 0, false
	}
	c.clock++
	e.used = c.clock
	return e.value, e.cost, true
}

// Put offers key with the cost of the run that produced value, and
// returns how many results the offer evicted: 0 or 1, the new one
// included when it is the one dropped (reported so the server's eviction
// counter stays exact). A Put of a resident key replaces its value and
// cost and evicts nothing. Put does not count a request: the Get that
// missed already did.
//
// The victim is found by a scan over the resident entries. It runs once
// per completed miss, which has already cost a simulation, so the budget
// (256 entries by default) needs no heap.
func (c *resultCache) Put(key string, value []byte, cost time.Duration) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	if e, ok := c.entries[key]; ok {
		e.value, e.cost, e.used = value, cost, c.clock
		return 0
	}
	e := &cacheEntry{key: key, hash: maphash.String(c.seed, key), value: value, cost: cost, used: c.clock}
	if len(c.entries) < c.cap {
		c.entries[key] = e
		return 0
	}
	var victim *cacheEntry
	var low float64
	for _, r := range c.entries {
		w := c.worth(r.hash, r.cost)
		if victim == nil || w < low || w == low && r.used < victim.used {
			victim, low = r, w
		}
	}
	if c.worth(e.hash, cost) > low {
		delete(c.entries, victim.key)
		c.entries[key] = e
	}
	return 1
}

// Len returns the resident entry count.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
