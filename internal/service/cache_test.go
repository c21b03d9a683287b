package service

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"nova/graph"
)

// cacheStep is one step of a resultCache table case: times requests of
// key, each a Get and, on a miss, a Put at cost (in whole seconds), as
// the server makes them. hits and evicted are the expected totals over
// the step's requests (evicted sums Put's returns), and resident the
// expected sorted key list after it.
type cacheStep struct {
	key           string
	cost, times   int
	hits, evicted int
	resident      string
}

// once is a step of a single request that misses.
func once(key string, cost, evicted int, resident string) cacheStep {
	return cacheStep{key: key, cost: cost, times: 1, evicted: evicted, resident: resident}
}

// request sends one request for key the way the server does, and
// reports whether it hit and what its Put evicted.
func request(c *resultCache, key string, cost time.Duration) (hit bool, evicted int) {
	if _, _, ok := c.Get(key); ok {
		return true, 0
	}
	return false, c.Put(key, []byte(key), cost)
}

// residentKeys returns the cache's keys, sorted and space-separated.
func residentKeys(c *resultCache) string {
	keys := make([]string, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return strings.Join(keys, " ")
}

// TestResultCacheEviction pins the admission rule with injected costs: a
// full cache's victim is the resident entry with the lowest count × cost,
// the least recently used on a tie, and the new result replaces it only
// if its own count × cost is higher. A window is historyWindow × cap
// lookups: 40 at cap 1, 80 at cap 2.
func TestResultCacheEviction(t *testing.T) {
	cases := []struct {
		name  string
		cap   int
		steps []cacheStep
	}{
		{"equal costs and no hits keep the keys admitted first", 3, []cacheStep{
			once("a", 1, 0, "a"), once("b", 1, 0, "a b"), once("c", 1, 0, "a b c"),
			once("d", 1, 1, "a b c"), once("e", 1, 1, "a b c"), once("f", 1, 1, "a b c"),
			once("g", 1, 1, "a b c"),
		}},
		{"a costly entry outlives a stream of cheap inserts", 2, []cacheStep{
			// Each cheap key is requested three times to x's once, yet
			// its 3 × 1 s stays below x's 1 × 100 s: plain frequency
			// would evict x.
			once("x", 100, 0, "x"),
			{key: "c1", cost: 1, times: 3, hits: 2, resident: "c1 x"},
			{key: "c2", cost: 1, times: 3, evicted: 3, resident: "c1 x"},
			{key: "c3", cost: 1, times: 3, evicted: 3, resident: "c1 x"},
			{key: "c4", cost: 1, times: 3, evicted: 3, resident: "c1 x"},
		}},
		{"an entry that stops being hit ages out", 1, []cacheStep{
			// x's 40 requests fill the first window, which halves its
			// count to 20 (60 s). c's 40th request ends the second
			// window: c halves to 20 and x to 10 (30 s), so c's 51st
			// request, at 31, displaces x. Without halving c would need
			// 121 requests.
			{key: "x", cost: 3, times: 40, hits: 39, resident: "x"},
			{key: "c", cost: 1, times: 60, hits: 9, evicted: 51, resident: "c"},
		}},
		{"a hot cheap entry is kept over a cold one of equal cost", 2, []cacheStep{
			// a is used less recently than b: LRU would evict a, its
			// count keeps it.
			{key: "a", cost: 1, times: 3, hits: 2, resident: "a"},
			once("b", 1, 0, "a b"),
			{key: "c", cost: 1, times: 2, evicted: 2, resident: "a c"},
			once("d", 1, 1, "a c"),
		}},
		{"a new entry cheaper than everything resident is dropped at once", 2, []cacheStep{
			once("a", 10, 0, "a"), once("b", 10, 0, "a b"),
			once("c", 1, 1, "a b"), once("d", 1, 1, "a b"),
			// a and b tie at 10 s: the less recently used goes.
			once("e", 30, 1, "b e"),
		}},
		{"a key's count survives its eviction", 1, []cacheStep{
			// a, evicted at a count of 5, comes back on its 6th request
			// after, at 11 × 1 s against b's 10 s. A count reset at
			// eviction would need 11 requests.
			{key: "a", cost: 1, times: 5, hits: 4, resident: "a"},
			once("b", 10, 1, "b"),
			{key: "a", cost: 1, times: 6, evicted: 6, resident: "a"},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newResultCache(tc.cap)
			for i, s := range tc.steps {
				hits, evicted := 0, 0
				for range s.times {
					hit, n := request(c, s.key, time.Duration(s.cost)*time.Second)
					if hit {
						hits++
					}
					evicted += n
				}
				if hits != s.hits || evicted != s.evicted {
					t.Errorf("step %d: %d requests for %s hit %d and evicted %d, want %d and %d",
						i, s.times, s.key, hits, evicted, s.hits, s.evicted)
				}
				if got := residentKeys(c); got != s.resident {
					t.Fatalf("step %d: after %s resident %q, want %q", i, s.key, got, s.resident)
				}
				if want := strings.Count(s.resident, " ") + 1; c.Len() != want {
					t.Fatalf("step %d: Len %d, want %d", i, c.Len(), want)
				}
			}
		})
	}
}

// TestResultCachePutResidentKey pins a Put of a key already resident: it
// replaces the value and cost, leaves the key's count alone, and evicts
// nothing.
func TestResultCachePutResidentKey(t *testing.T) {
	c := newResultCache(2)
	request(c, "a", time.Second)
	c.Get("a")
	if n := c.Put("a", []byte("new"), 5*time.Second); n != 0 || c.Len() != 1 {
		t.Fatalf("re-Put evicted %d with Len %d; want 0 and 1", n, c.Len())
	}
	e := c.entries["a"]
	if string(e.value) != "new" || e.cost != 5*time.Second || c.counts[e.hash] != 2 {
		t.Fatalf("re-Put entry: value %q cost %v count %d; want new, 5s, 2", e.value, e.cost, c.counts[e.hash])
	}
	// The kept count is in a's worth: 2 × 5 s outranks b's 1 × 8 s, so a
	// 9 s newcomer evicts b, where a reset count would have evicted a.
	request(c, "b", 8*time.Second)
	if hit, n := request(c, "c", 9*time.Second); hit || n != 1 || residentKeys(c) != "a c" {
		t.Fatalf("9 s newcomer: hit %v, evicted %d, resident %q; want a miss, 1 and \"a c\"", hit, n, residentKeys(c))
	}
	if v, cost, ok := c.Get("a"); !ok || string(v) != "new" || cost != 5*time.Second {
		t.Fatalf("Get(a) = %q, %v, %v; want new, 5s, true", v, cost, ok)
	}
}

// TestResultCacheCyclicSweep re-runs a sweep over three times the cache,
// as a sweep script re-running its grid does. With equal costs the cache
// keeps the keys it admitted first and hits each of them on every later
// pass. With every third key 100× costlier it keeps the costly keys and
// hits every one of them on every pass after the first.
func TestResultCacheCyclicSweep(t *testing.T) {
	const capacity, passes = 24, 6
	sweep := func(costed bool) (perPass []int) {
		c := newResultCache(capacity)
		for p := 0; p < passes; p++ {
			hits := 0
			for k := 0; k < 3*capacity; k++ {
				cost := time.Millisecond
				if costed && k%3 == 0 {
					cost *= 100
				}
				if hit, _ := request(c, fmt.Sprintf("k%02d", k), cost); hit {
					hits++
				}
			}
			perPass = append(perPass, hits)
		}
		return perPass
	}
	for _, costed := range []bool{false, true} {
		got := sweep(costed)
		for p, hits := range got[1:] {
			if hits != capacity {
				t.Errorf("costed %v, pass %d: %d hits, want all %d admitted keys (per pass: %v)", costed, p+1, hits, capacity, got)
			}
		}
	}
}

// TestResultCacheHotSetDisplacesColdSet switches the requests from one
// set of keys to another of the same size and cost. The cold set's
// counts, earned over three windows, halve at each window's end, so the
// new hot set holds the whole cache within one window of the switch.
// Without halving it would take three.
func TestResultCacheHotSetDisplacesColdSet(t *testing.T) {
	const capacity = 24
	window := historyWindow * capacity
	c := newResultCache(capacity)
	key := func(set string, i int) string { return fmt.Sprintf("%s%02d", set, i%capacity) }
	for i := 0; i < 3*window; i++ {
		request(c, key("cold", i), time.Second)
	}
	var hot []string
	for i := 0; i < capacity; i++ {
		hot = append(hot, key("hot", i))
	}
	slices.Sort(hot)
	want := strings.Join(hot, " ")
	for i := 0; i < window; i++ {
		request(c, key("hot", i), time.Second)
		if residentKeys(c) == want {
			t.Logf("the hot set is resident %d lookups after the switch (window %d)", i+1, window)
			return
		}
	}
	t.Fatalf("one window after the switch, resident %q", residentKeys(c))
}

// TestResultCacheHistoryBound requests ten windows of distinct one-shot
// keys. Each count reaches 1 and halves to 0 at its window's end, so the
// history never holds more than one window of keys.
func TestResultCacheHistoryBound(t *testing.T) {
	const capacity = 8
	window := historyWindow * capacity
	c := newResultCache(capacity)
	most := 0
	for i := 0; i < 10*window; i++ {
		request(c, fmt.Sprintf("once%d", i), time.Second)
		most = max(most, len(c.counts))
	}
	if most > window || c.Len() != capacity {
		t.Fatalf("history held up to %d keys, want at most %d; %d entries, want %d", most, window, c.Len(), capacity)
	}
}

// Zipf replay: serve-zipf's request schedule (bench/serve.go) with
// DESIGN.md §17's per-cell run times injected as costs.
const (
	zipfKeys, zipfRounds, zipfRoundLen = 72, 20, 400
	zipfS                              = 1.2
	zipfCapacity                       = 24
)

// zipfCostMS is the run time of a cell in ms, by engine (nova, polygraph,
// ligra) and kernel (bfs, sssp, pr).
var zipfCostMS = [3][3]float64{{80, 166, 377}, {7, 13, 36}, {5, 9, 9}}

// zipfCost lays keys out as bench/serve.go's keySpace does: rank r is
// engine r%3, kernel (r/3)%3 and root r/9.
func zipfCost(r int) time.Duration {
	return time.Duration(zipfCostMS[r%3][(r/3)%3] * float64(time.Millisecond))
}

// zipfSchedule mirrors bench/serve.go's schedule: rounds in which rank r
// appears in proportion to (1+r)^−s, at least once, each round shuffled
// by rng. It also returns how often each rank appears in a round.
func zipfSchedule(rng *rand.Rand) (sched, perRound []int) {
	var h float64
	for r := 1; r <= zipfKeys; r++ {
		h += math.Pow(float64(r), -zipfS)
	}
	var round []int
	perRound = make([]int, zipfKeys)
	for r := range perRound {
		n := int(math.Round(zipfRoundLen * math.Pow(float64(r+1), -zipfS) / h))
		for i := 0; i < n || i == 0; i++ {
			round = append(round, r)
			perRound[r]++
		}
	}
	for i := 0; i < zipfRounds; i++ {
		rng.Shuffle(len(round), func(a, b int) { round[a], round[b] = round[b], round[a] })
		sched = append(sched, round...)
	}
	return sched, perRound
}

// TestResultCacheZipfReplay replays serve-zipf's schedule through the
// cache over 30 shuffle seeds, the first round of each a warm-up, and
// compares the seconds spent recomputing misses with the best static
// choice: the cache holding the top keys by rate × cost for good. At
// 0.2 ms a request besides recomputing, the replay models about 200
// ops/s against the static choice's 238 (PR 22's rule: 168).
func TestResultCacheZipfReplay(t *testing.T) {
	const factor, minHitRate = 1.3, 0.70
	var replayed, static float64
	var requests, hits int
	for seed := int64(1); seed <= 30; seed++ {
		sched, perRound := zipfSchedule(rand.New(rand.NewSource(seed)))
		ranks := make([]int, zipfKeys)
		for r := range ranks {
			ranks[r] = r
		}
		worth := func(r int) float64 { return float64(perRound[r]) * zipfCost(r).Seconds() }
		slices.SortFunc(ranks, func(a, b int) int { return cmp.Compare(worth(b), worth(a)) })
		kept := make([]bool, zipfKeys)
		for _, r := range ranks[:zipfCapacity] {
			kept[r] = true
		}
		c := newResultCache(zipfCapacity)
		warmup := len(sched) / zipfRounds
		for i, r := range sched {
			hit, _ := request(c, fmt.Sprintf("k%02d", r), zipfCost(r))
			if i < warmup {
				continue
			}
			requests++
			if hit {
				hits++
			} else {
				replayed += zipfCost(r).Seconds()
			}
			if !kept[r] {
				static += zipfCost(r).Seconds()
			}
		}
	}
	const overhead = 0.2e-3 // s per request
	rate := float64(hits) / float64(requests)
	t.Logf("recomputed %.1f s against the static choice's %.1f s (%.3f×); hit rate %.3f; modelled %.1f ops/s against %.1f",
		replayed, static, replayed/static, rate,
		float64(requests)/(replayed+overhead*float64(requests)), float64(requests)/(static+overhead*float64(requests)))
	if replayed > factor*static {
		t.Errorf("recomputed %.1f s, over %.1f× the static choice's %.1f s", replayed, factor, static)
	}
	if rate < minHitRate {
		t.Errorf("hit rate %.3f, want at least %.2f", rate, minHitRate)
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
