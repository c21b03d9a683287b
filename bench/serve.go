package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"nova"
	"nova/graph"
	"nova/internal/harness"
	"nova/internal/service"
	"nova/internal/stats"
)

// serveWorkload drives an in-process novad (service.Server behind a
// loopback HTTP listener) with one closed-loop client: it sends its next
// request only after the previous one's result arrived, as a sweep script
// does. Keys are engine × workload × root cells requested with Zipf(zipfS)
// frequencies from a key space three times the result cache, so hits and
// misses with evictions mix.
type serveWorkload struct {
	vertices                       int
	degree                         float64
	workers, backlog, cacheEntries int
	roots                          int
	zipfS                          float64
	warmup                         int // requests
}

var (
	serveEngines = []string{"nova", "polygraph", "ligra"}
	serveKernels = []string{"bfs", "sssp", "pr"}
)

// maxReplays bounds the nova misses a traced run replays directly.
const maxReplays = 6

type serveKey struct {
	engine, workload string
	root             graph.VertexID
}

func (k serveKey) String() string {
	return fmt.Sprintf("%s %s from vertex %d", k.engine, k.workload, k.root)
}

// roundLen is how many requests one round of the schedule holds.
const roundLen = 400

// scheduleSeed shuffles the rounds of the schedule.
const scheduleSeed = 1

// schedule returns the order keys are requested in: rounds of about
// roundLen requests in which key rank r appears in proportion to
// (1+r)^−s, at least once, each round shuffled by rng. Exact per-round
// Zipf frequencies, rather than independent draws, keep the mix of
// expensive and cheap misses the same from seed to seed, so throughput
// measures the server rather than the luck of the draw.
func schedule(nkeys int, s float64, rounds int, rng *rand.Rand) []int {
	var h float64
	for r := 1; r <= nkeys; r++ {
		h += math.Pow(float64(r), -s)
	}
	var round []int
	for r := 0; r < nkeys; r++ {
		n := int(math.Round(roundLen * math.Pow(float64(r+1), -s) / h))
		for i := 0; i < n || i == 0; i++ {
			round = append(round, r)
		}
	}
	out := make([]int, 0, rounds*len(round))
	for i := 0; i < rounds; i++ {
		rng.Shuffle(len(round), func(a, b int) { round[a], round[b] = round[b], round[a] })
		out = append(out, round...)
	}
	return out
}

// keySpace lays keys out by Zipf rank: rank r is engine r%3, workload
// (r/3)%3, root r/9, so every engine and workload sits among the hottest
// ranks and the mix of miss costs does not hinge on one key.
func keySpace(roots []graph.VertexID) []serveKey {
	keys := make([]serveKey, 0, len(serveEngines)*len(serveKernels)*len(roots))
	for _, root := range roots {
		for _, w := range serveKernels {
			for _, e := range serveEngines {
				keys = append(keys, serveKey{e, w, root})
			}
		}
	}
	return keys
}

// pickRoots draws n distinct vertices with out-edges.
func pickRoots(g *graph.CSR, n int, seed int64) []graph.VertexID {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[graph.VertexID]bool)
	var roots []graph.VertexID
	for len(roots) < n {
		v := graph.VertexID(rng.Intn(g.NumVertices()))
		if !seen[v] && g.OutDegree(v) > 0 {
			seen[v] = true
			roots = append(roots, v)
		}
	}
	return roots
}

// liveServer is a service.Server listening on loopback.
type liveServer struct {
	srv  *service.Server
	hs   *http.Server
	done chan struct{}
	base string
}

func listen(srv *service.Server) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{srv: srv, hs: &http.Server{Handler: srv.Handler()}, done: make(chan struct{}),
		base: "http://" + ln.Addr().String()}
	go func() {
		defer close(ls.done)
		_ = ls.hs.Serve(ln) // returns ErrServerClosed after close
	}()
	return ls, nil
}

// close stops the listener, waits for it, then stops the server.
func (ls *liveServer) close() {
	_ = ls.hs.Close()
	<-ls.done
	ls.srv.Close()
}

// serveRun is the client's state over one run.
type serveRun struct {
	base   string
	client *http.Client
	keys   []serveKey
	sched  []int // key order, cycled
	next   int
	fp     map[string]string // engine → expected result fingerprint
	tr     *tracer
	ops    int

	cold   map[int]map[[32]byte]bool // key → hashes of its cold bodies
	cycles map[int]float64           // nova key → cycles of its cold run
}

// outcome is one request's result.
type outcome struct {
	key         int
	ms          float64
	hit         bool
	traced      bool
	resultBytes int
	err         error
}

func (s serveWorkload) run(rc runConfig) (*workloadRecord, error) {
	dir, err := os.MkdirTemp("", "novabench-serve")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var (
		live       *liveServer
		gens, regs []float64
		hs         hostSpeed
	)
	path := ""
	setups, err := timeSetups(&hs, func() (float64, error) {
		if live != nil {
			live.close()
			live = nil
			if err := os.Remove(path); err != nil {
				return 0, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		path = filepath.Join(dir, fmt.Sprintf("g%d.csr", len(gens)))
		st := graph.NewUniformStream("serve", s.vertices, s.degree, 64, rc.seed)
		if _, err := graph.BuildCSRFile(path, st, graph.BuildOptions{}); err != nil {
			return 0, err
		}
		gens = append(gens, time.Since(t0).Seconds())
		srv := service.NewServer(service.Config{Workers: s.workers, Backlog: s.backlog, CacheEntries: s.cacheEntries})
		t1 := time.Now()
		if _, err := srv.Registry().Register("g", path); err != nil {
			srv.Close()
			return 0, err
		}
		regs = append(regs, time.Since(t1).Seconds())
		ls, err := listen(srv)
		if err != nil {
			srv.Close()
			return 0, err
		}
		if _, err := httpDo(http.DefaultClient, "GET", ls.base+"/healthz", nil, http.StatusOK); err != nil {
			ls.close()
			return 0, err
		}
		live = ls
		return time.Since(t0).Seconds(), nil
	})
	if live != nil {
		defer live.close()
	}
	if err != nil {
		return nil, err
	}

	entry, err := live.srv.Registry().Acquire("g")
	if err != nil {
		return nil, err
	}
	defer entry.Release()
	g := entry.Graph()

	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	sr := &serveRun{
		base:   live.base,
		client: &http.Client{Transport: transport, Timeout: 2 * time.Minute},
		keys:   keySpace(pickRoots(g, s.roots, rc.seed)),
		fp:     map[string]string{},
		tr:     rc.tr,
		cold:   map[int]map[[32]byte]bool{},
		cycles: map[int]float64{},
	}
	for _, e := range serveEngines {
		eng, err := service.BuildEngine(&service.JobRequest{Engine: e}, nil)
		if err != nil {
			return nil, err
		}
		sr.fp[e] = eng.Fingerprint()
	}
	// 20 rounds outlast a minute of requests; longer runs cycle through
	// them. The seed picks the graph and the roots but not the order of
	// key ranks: which requests miss depends on that order, and a miss on
	// the costliest key outweighs a hundred hits, so a seeded order would
	// make throughput measure the draw rather than the server.
	sr.sched = schedule(len(sr.keys), s.zipfS, 20, rand.New(rand.NewSource(scheduleSeed)))

	rec := &workloadRecord{}
	tally := func(outs []outcome) {
		for _, o := range outs {
			rec.Attempted++
			if o.err != nil {
				rec.fail(o.err)
			}
		}
	}

	warm := sr.phase(false, func() bool { return sr.next < s.warmup })
	tally(warm)

	// The measured run is cut into slices of about a second. Before the
	// first and after each, with the client idle, the reference kernel is
	// timed; only the slices count as measured time, and each slice's
	// requests are scaled by the timings around it.
	statsBefore := live.srv.StatsDump()
	var (
		alloc   allocMeter
		outs    []outcome
		ops     measured
		elapsed time.Duration
	)
	alloc.begin()
	hs.sample()
	for elapsed < rc.seconds {
		t0 := time.Now()
		end := t0.Add(min(time.Second, rc.seconds-elapsed))
		slice := sr.phase(rc.tr != nil, func() bool { return time.Now().Before(end) })
		d := time.Since(t0)
		elapsed += d
		hs.sample()
		k := hs.bracket()
		for _, o := range slice {
			ops.add(o.ms, k)
		}
		ops.wall += d.Seconds()
		ops.scaledWall += d.Seconds() * k
		outs = append(outs, slice...)
	}
	alloc.end(len(outs))
	statsAfter := live.srv.StatsDump()
	tally(outs)

	var tracedLat, plainLat []float64
	var hits, resultBytes float64
	missed := []int{}
	for _, o := range outs {
		if o.traced {
			tracedLat = append(tracedLat, o.ms)
		} else {
			plainLat = append(plainLat, o.ms)
		}
		if o.hit {
			hits++
		} else if sr.keys[o.key].engine == "nova" {
			missed = append(missed, o.key)
		}
		resultBytes += float64(o.resultBytes)
	}
	if rc.tr == nil {
		rec.setEndToEnd(&setups, &ops, &hs)
		rec.Correct = rec.Failed == 0
		return rec, nil
	}
	rec.Latency = summarize(ops.raw)

	m := newLayerMetrics()
	tot := rc.tr.totals()
	req := tot["bench.request"]
	for _, name := range []string{"submit", "wait", "result"} {
		if a := tot["service."+name]; a != nil && req != nil {
			m.set("service."+name+"_frac", a.Total/req.Total)
		}
	}
	n := float64(len(outs))
	m.set("service.hit_rate", hits/n)
	m.set("service.result_kb", resultBytes/n/1024)
	m.set("service.evictions", delta(statsBefore, statsAfter, "cache.evictions"))
	m.set("service.rejected", delta(statsBefore, statsAfter, "jobs.rejected"))
	m.set("graph.gen_s", median(gens))
	m.set("graph.register_frac", median(regs)/median(setups.raw))
	m.set("graph.partition_s", timePartition(g, nova.DefaultConfig()))
	mb, gcs := alloc.perOp()
	m.set("go.alloc_mb_per_op", mb)
	m.set("go.gc_per_op", gcs)
	m.set("trace.overhead_frac", median(tracedLat)/median(plainLat)-1)

	// Replay nova misses directly through the engine the server builds
	// for them, decomposed like the sim workloads' traced cells, so the
	// layers under a miss are measured the same way.
	cells, failed := sr.replay(g, missed)
	rec.Attempted += len(cells) + len(failed)
	for _, err := range failed {
		rec.fail(err)
	}
	layerFromCells(m, rc.tr.totals(), cells, g.NumVertices())
	rec.Metrics = m
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// phase sends requests closed-loop, each for the next key of the
// schedule, until more reports false, and returns their outcomes. With
// traced set, every second request records spans, so the traced and
// untraced latencies share host conditions.
func (sr *serveRun) phase(traced bool, more func() bool) []outcome {
	var outs []outcome
	for i := 0; more(); i++ {
		outs = append(outs, sr.request(sr.sched[sr.next%len(sr.sched)], traced && i%2 == 1))
		sr.next++
	}
	return outs
}

// request runs one job end to end: POST /jobs, GET its NDJSON stream
// until the terminal line, GET its result; then checks the result.
func (sr *serveRun) request(key int, traced bool) (o outcome) {
	o.key, o.traced = key, traced
	k := sr.keys[key]
	var tr *tracer
	op := 0
	if traced {
		tr = sr.tr
		sr.ops++
		op = sr.ops
	}

	root := uint32(k.root)
	body, _ := json.Marshal(service.JobRequest{Engine: k.engine, Workload: k.workload, Graph: "g", Root: &root})
	t0 := time.Now()
	reqSpan := tr.begin(op, 0, "bench.request", "bench")
	defer func() {
		o.ms = float64(time.Since(t0)) / float64(time.Millisecond)
		tr.end(reqSpan)
	}()

	var st service.JobStatus
	id := tr.begin(op, reqSpan, "service.submit", "service")
	data, err := httpDo(sr.client, "POST", sr.base+"/jobs", body, http.StatusOK, http.StatusAccepted)
	tr.end(id)
	if err == nil {
		err = json.Unmarshal(data, &st)
	}
	if err != nil {
		o.err = fmt.Errorf("%s: submit: %w", k, err)
		return o
	}
	o.hit = st.Cached

	id = tr.begin(op, reqSpan, "service.wait", "service")
	data, err = httpDo(sr.client, "GET", sr.base+"/jobs/"+st.ID+"/stream?interval_ms=600000", nil, http.StatusOK)
	tr.end(id)
	if err == nil {
		err = terminalDone(data)
	}
	if err != nil {
		o.err = fmt.Errorf("%s: job %s: %w", k, st.ID, err)
		return o
	}

	id = tr.begin(op, reqSpan, "service.result", "service")
	data, err = httpDo(sr.client, "GET", sr.base+"/jobs/"+st.ID+"/result", nil, http.StatusOK)
	tr.end(id)
	if err != nil {
		o.err = fmt.Errorf("%s: result: %w", k, err)
		return o
	}
	o.resultBytes = len(data)
	o.err = sr.check(key, st.Cached, data)
	return o
}

// check verifies a result body. A cold body must name the requested
// engine, workload and engine fingerprint and be complete; for the
// simulated engines every cold body of one key must be identical. A warm
// hit must equal a cold body of its key byte for byte. Every request goes
// through the one client, so a key's cold body is recorded before its hit.
func (sr *serveRun) check(key int, hit bool, body []byte) error {
	sum := sha256.Sum256(body)
	k := sr.keys[key]
	if hit {
		if !sr.cold[key][sum] {
			return fmt.Errorf("%s: cache hit differs from every cold result of its key", k)
		}
		return nil
	}
	var res service.JobResult
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("%s: decoding result: %w", k, err)
	}
	if res.Engine != k.engine || res.Workload != k.workload || res.Fingerprint != sr.fp[k.engine] || res.Partial {
		return fmt.Errorf("%s: result is %s/%s fingerprint %q partial=%v, want fingerprint %q",
			k, res.Engine, res.Workload, res.Fingerprint, res.Partial, sr.fp[k.engine])
	}
	set := sr.cold[key]
	if set == nil {
		set = map[[32]byte]bool{}
		sr.cold[key] = set
	}
	// The ligra baseline reports host wall time, so only its bodies may
	// differ between cold runs.
	if k.engine != "ligra" && len(set) > 0 && !set[sum] {
		return fmt.Errorf("%s: cold result differs from an earlier cold result", k)
	}
	set[sum] = true
	if k.engine == "nova" && res.Dump != nil {
		sr.cycles[key], _ = res.Dump.Value(nova.MetricCycles)
	}
	return nil
}

// replay reruns up to maxReplays distinct missed nova keys as traced
// cells and checks each against the server's cold run.
func (sr *serveRun) replay(g *graph.CSR, missed []int) (cells []cellCounts, failed []error) {
	acc, err := nova.New(nova.DefaultConfig()) // what service.BuildEngine builds for a request without options
	if err != nil {
		return nil, []error{err}
	}
	seen := map[int]bool{}
	for _, key := range missed {
		if seen[key] || len(seen) == maxReplays {
			continue
		}
		seen[key] = true
		k := sr.keys[key]
		prog, err := programFor(k.workload, k.root)
		if err != nil {
			failed = append(failed, err)
			continue
		}
		w := harness.Workload{Name: k.workload, G: g, Root: k.root}
		sr.ops++
		rep, _, err := tracedCell(context.Background(), sr.tr, sr.ops, acc, w, prog)
		if err == nil && float64(rep.Cycles) != sr.cycles[key] {
			err = fmt.Errorf("%s: replay simulated %d cycles, the server's run %.0f", k, rep.Cycles, sr.cycles[key])
		}
		if err != nil {
			failed = append(failed, err)
			continue
		}
		cells = append(cells, countsOf(rep))
	}
	return cells, failed
}

// terminalDone checks that an NDJSON status stream ended in state done.
func terminalDone(stream []byte) error {
	lines := bytes.Split(bytes.TrimSpace(stream), []byte("\n"))
	var st service.JobStatus
	if err := json.Unmarshal(lines[len(lines)-1], &st); err != nil {
		return fmt.Errorf("decoding stream: %w", err)
	}
	if st.State != service.JobDone || st.Partial {
		return fmt.Errorf("ended %s (partial=%v): %s", st.State, st.Partial, st.Error)
	}
	return nil
}

// httpDo sends one request, reads the whole body, and fails unless the
// status is one of want.
func httpDo(c *http.Client, method, url string, body []byte, want ...int) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	for _, code := range want {
		if resp.StatusCode == code {
			return data, nil
		}
	}
	return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
}

// delta is how much a server counter grew between two dumps.
func delta(before, after *stats.Dump, path string) float64 {
	a, _ := after.Value(path)
	b, _ := before.Value(path)
	return a - b
}
