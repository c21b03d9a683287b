package service

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"nova/graph"
)

// cacheStep is one operation of a resultCache table case: a Put of key at
// cost (in whole seconds), or, with get set, a Get of key that must hit.
// For a Put, evicted is its expected return and resident the expected
// sorted key list after it.
type cacheStep struct {
	key      string
	cost     int
	get      bool
	evicted  int
	resident string
}

func cachePut(key string, cost, evicted int, resident string) cacheStep {
	return cacheStep{key: key, cost: cost, evicted: evicted, resident: resident}
}

func cacheGet(key string) cacheStep { return cacheStep{key: key, get: true} }

// residentKeys returns the cache's keys, sorted and space-separated.
func residentKeys(c *resultCache) string {
	keys := make([]string, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return strings.Join(keys, " ")
}

// TestResultCacheEviction pins the eviction rule with injected costs:
// the lowest L + hits × cost goes, ties to the least recently used, and
// the new entry competes like any other.
func TestResultCacheEviction(t *testing.T) {
	cases := []struct {
		name  string
		cap   int
		steps []cacheStep
	}{
		{"equal costs and no hits evict in LRU order", 3, []cacheStep{
			cachePut("a", 1, 0, "a"), cachePut("b", 1, 0, "a b"), cachePut("c", 1, 0, "a b c"),
			cachePut("d", 1, 1, "b c d"), cachePut("e", 1, 1, "c d e"), cachePut("f", 1, 1, "d e f"),
			cachePut("g", 1, 1, "e f g"),
		}},
		{"a costly entry outlives a stream of cheap inserts", 2, []cacheStep{
			cachePut("x", 100, 0, "x"), cachePut("c1", 1, 0, "c1 x"),
			cachePut("c2", 1, 1, "c2 x"), cachePut("c3", 1, 1, "c3 x"), cachePut("c4", 1, 1, "c4 x"),
			cachePut("c5", 1, 1, "c5 x"), cachePut("c6", 1, 1, "c6 x"), cachePut("c7", 1, 1, "c7 x"),
			cachePut("c8", 1, 1, "c8 x"), cachePut("c9", 1, 1, "c9 x"), cachePut("c10", 1, 1, "c10 x"),
		}},
		{"an entry that stops being hit ages out", 2, []cacheStep{
			// Each eviction raises L, so cheap inserts overtake x's
			// fixed priority of 3 within five evictions.
			cachePut("x", 3, 0, "x"), cachePut("c1", 1, 0, "c1 x"),
			cachePut("c2", 1, 1, "c2 x"), cachePut("c3", 1, 1, "c3 x"), cachePut("c4", 1, 1, "c4 x"),
			cachePut("c5", 1, 1, "c5 x"), cachePut("c6", 1, 1, "c5 c6"),
		}},
		{"a hot cheap entry is kept over a cold one of equal cost", 2, []cacheStep{
			// a is hit but then used less recently than b: LRU would
			// evict a, the frequency term keeps it.
			cachePut("a", 1, 0, "a"), cacheGet("a"), cacheGet("a"), cachePut("b", 1, 0, "a b"),
			cachePut("c", 1, 1, "a c"), cachePut("d", 1, 1, "a d"),
		}},
		{"a new entry cheaper than everything resident is dropped at once", 2, []cacheStep{
			cachePut("a", 10, 0, "a"), cachePut("b", 10, 0, "a b"),
			cachePut("c", 1, 1, "a b"), cachePut("d", 1, 1, "a b"),
			cachePut("e", 30, 1, "b e"),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newResultCache(tc.cap)
			for i, s := range tc.steps {
				if s.get {
					if _, _, ok := c.Get(s.key); !ok {
						t.Fatalf("step %d: Get(%s) missed; resident %q", i, s.key, residentKeys(c))
					}
					continue
				}
				if n := c.Put(s.key, []byte(s.key), time.Duration(s.cost)*time.Second); n != s.evicted {
					t.Errorf("step %d: Put(%s) evicted %d, want %d", i, s.key, n, s.evicted)
				}
				if got := residentKeys(c); got != s.resident {
					t.Fatalf("step %d: after Put(%s) resident %q, want %q", i, s.key, got, s.resident)
				}
				if want := strings.Count(s.resident, " ") + 1; c.Len() != want {
					t.Fatalf("step %d: Len %d, want %d", i, c.Len(), want)
				}
			}
		})
	}
}

// TestResultCachePutResidentKey pins a Put of a key already resident: it
// replaces the value and cost, keeps the hit count, and evicts nothing.
func TestResultCachePutResidentKey(t *testing.T) {
	c := newResultCache(2)
	c.Put("a", []byte("old"), time.Second)
	c.Get("a")
	if n := c.Put("a", []byte("new"), 5*time.Second); n != 0 || c.Len() != 1 {
		t.Fatalf("re-Put evicted %d with Len %d; want 0 and 1", n, c.Len())
	}
	if e := c.entries["a"]; string(e.value) != "new" || e.cost != 5*time.Second || e.hits != 2 {
		t.Fatalf("re-Put entry: value %q cost %v hits %d; want new, 5s, 2", e.value, e.cost, e.hits)
	}
	// The kept hit count is in the priority: a at 2 × 5 s outranks two
	// 8 s entries, so b goes, where a reset count would have dropped a.
	c.Put("b", []byte("b"), 8*time.Second)
	if n := c.Put("c", []byte("c"), 8*time.Second); n != 1 || residentKeys(c) != "a c" {
		t.Fatalf("after two 8 s inserts: evicted %d, resident %q; want 1 and \"a c\"", n, residentKeys(c))
	}
	if v, cost, ok := c.Get("a"); !ok || string(v) != "new" || cost != 5*time.Second {
		t.Fatalf("Get(a) = %q, %v, %v; want new, 5s, true", v, cost, ok)
	}
}

// TestResultCacheCyclicSweep re-runs a sweep over three times the cache,
// every third key 100× costlier, as a sweep script re-running its grid
// does. With equal costs the cache evicts as LRU would and serves no hit
// at all; with the costs recorded it keeps the costly keys and hits every
// one of them on every pass after the first.
func TestResultCacheCyclicSweep(t *testing.T) {
	const capacity, passes = 24, 6
	sweep := func(costed bool) (perPass []int) {
		c := newResultCache(capacity)
		for p := 0; p < passes; p++ {
			hits := 0
			for k := 0; k < 3*capacity; k++ {
				key := fmt.Sprintf("k%02d", k)
				if _, _, ok := c.Get(key); ok {
					hits++
					continue
				}
				cost := time.Millisecond
				if costed && k%3 == 0 {
					cost *= 100
				}
				c.Put(key, []byte(key), cost)
			}
			perPass = append(perPass, hits)
		}
		return perPass
	}
	if lru := sweep(false); slices.Max(lru) != 0 {
		t.Errorf("equal costs: hits per pass %v, want none", lru)
	}
	got := sweep(true)
	for p, hits := range got[1:] {
		if hits != capacity {
			t.Errorf("costed pass %d: %d hits, want all %d costly keys (per pass: %v)", p+1, hits, capacity, got)
		}
	}
}

// TestResultCacheSavedSeconds checks cache.saved_seconds at the server: a
// hit adds the recorded cost of the run that filled the entry.
func TestResultCacheSavedSeconds(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	path := filepath.Join(t.TempDir(), "g.csr")
	if _, err := graph.BuildCSRFile(path, graph.NewUniformStream("g", 300, 4, 16, 1), graph.BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().Register("g", path); err != nil {
		t.Fatal(err)
	}
	saved := func() float64 {
		v, ok := s.StatsDump().Value("cache.saved_seconds")
		if !ok {
			t.Fatal("no cache.saved_seconds record")
		}
		return v
	}
	run := func() *job {
		j, herr := s.submit(&JobRequest{Engine: "nova", Workload: "bfs", Graph: "g"})
		if herr != nil {
			t.Fatal(herr)
		}
		<-j.done
		if j.state != JobDone {
			t.Fatalf("job %s ended %s: %s", j.id, j.state, j.errMsg)
		}
		return j
	}
	if run().cached || saved() != 0 {
		t.Fatalf("cold run: saved_seconds %v, want 0", saved())
	}
	var cost time.Duration
	for _, e := range s.cache.entries {
		cost = e.cost
	}
	if cost <= 0 || s.cache.Len() != 1 {
		t.Fatalf("cache holds %d entries, cost %v; want one with a positive cost", s.cache.Len(), cost)
	}
	for i := 1; i <= 2; i++ {
		if !run().cached {
			t.Fatal("warm run missed the cache")
		}
		if got, want := saved(), float64(i)*cost.Seconds(); got != want {
			t.Fatalf("after %d hits: saved_seconds %v, want %v", i, got, want)
		}
	}
}
