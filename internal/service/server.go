// Package service is the simulation-as-a-service layer behind cmd/novad:
// a long-running, multi-tenant HTTP/JSON front end over the existing
// engines, built from three pieces.
//
// The graph registry opens each .csr container once — via mmap where the
// platform allows — validates every checksum, and shares the resulting
// read-only CSR across all concurrent jobs; entries are reference-counted
// so eviction never unmaps a graph a running simulation still reads.
//
// The scheduler is a harness.Queue over the same Pool machinery every
// sweep uses: per-job timeouts, cooperative cancellation through
// sim.Interrupt/WatchContext, abandon-grace salvage of partial reports,
// and a bounded backlog that turns overload into HTTP 503 instead of
// unbounded memory growth. Each nova job carries an observer interrupt,
// so clients can stream the simulation's liveness beats while it runs.
//
// The result cache keys on Engine.Fingerprint() + the graph's content
// hash (CRC32C from the CSR container header) + the workload cell, and
// stores the rendered result bytes of complete runs: a warm identical
// sweep cell is served without simulating, bit-identical to its cold run.
// Over its entry budget the cache admits and evicts by the cost of
// recomputing a result times how often its key is requested, so a costly
// NOVA result outlives a stream of cheap baseline results.
// Hit/miss/eviction counters, the simulation time hits saved, and a
// request-latency histogram are registered in an internal/stats tree
// surfaced at /statsz.
//
// See API.md at the repository root for the complete endpoint reference
// and DESIGN.md §17 for the architecture discussion.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"nova"
	"nova/internal/harness"
	"nova/internal/sim"
	"nova/internal/stats"
)

// Config tunes a Server. The zero value is serviceable: GOMAXPROCS
// workers, a worker-sized backlog, a 256-entry cache, no default job
// timeout.
type Config struct {
	// Workers bounds concurrently running simulations.
	Workers int
	// Backlog bounds queued-but-not-running jobs (≤0 = Workers); a full
	// backlog rejects submissions with HTTP 503.
	Backlog int
	// DefaultTimeout bounds each job's wall clock when the request does
	// not set one (0 = unbounded).
	DefaultTimeout time.Duration
	// CacheEntries bounds the result cache (0 = 256).
	CacheEntries int
	// JobRecords bounds retained finished-job records (0 = 1024).
	JobRecords int
}

// Server owns the registry, scheduler, cache, and statistics of one novad
// instance. Build with NewServer, expose with Handler, stop with Close.
type Server struct {
	cfg   Config
	reg   *Registry
	cache *resultCache
	jobs  *jobTable
	queue *harness.Queue[*harness.Report]

	// buildEngine assembles engines for requests; tests override it
	// (export_test.go) to wrap the served engine, e.g. in a chaos fault
	// injector.
	buildEngine EngineBuilder

	// The statistics tree and every value it reads are guarded by statsMu
	// (stats values are plain fields, not atomics; the tree is dumped
	// while handlers run).
	statsMu        sync.Mutex
	statsRoot      *stats.Group
	started        time.Time
	httpRequests   uint64
	httpErrors     uint64
	latencyUS      stats.Histogram
	jobsSubmitted  uint64
	jobsCompleted  uint64
	jobsFailed     uint64
	jobsPartial    uint64
	jobsRejected   uint64
	cacheHits      uint64
	cacheMisses    uint64
	cacheEvictions uint64
	cacheInserts   uint64
	cacheSaved     float64
}

// NewServer assembles a server and starts its worker pool.
func NewServer(cfg Config) *Server {
	s := &Server{
		cfg:         cfg,
		reg:         NewRegistry(),
		cache:       newResultCache(cfg.CacheEntries),
		jobs:        newJobTable(cfg.JobRecords),
		buildEngine: BuildEngine,
		started:     time.Now(),
	}
	s.queue = harness.NewQueue[*harness.Report](&harness.Pool{
		Workers:    cfg.Workers,
		JobTimeout: cfg.DefaultTimeout,
	}, cfg.Backlog)
	s.registerStats()
	return s
}

// Registry exposes the graph registry (the loadtest client pre-registers
// graphs through it when it runs the server in-process).
func (s *Server) Registry() *Registry { return s.reg }

// Close stops intake, waits for in-flight jobs, and releases every
// mapped graph.
func (s *Server) Close() {
	s.queue.Close()
	s.reg.Close()
}

// registerStats builds the /statsz tree. All reads happen through
// closures evaluated under statsMu at dump time (see StatsDump).
func (s *Server) registerStats() {
	root := stats.NewRoot()
	root.Formula(func() float64 { return time.Since(s.started).Seconds() },
		"uptime_seconds", stats.Seconds, "wall clock since the server started").Volatile()

	h := root.Group("http")
	h.Uint64(&s.httpRequests, "requests", stats.Count, "HTTP requests served")
	h.Uint64(&s.httpErrors, "errors", stats.Count, "HTTP responses with status >= 400")
	h.Histogram(&s.latencyUS, "request_latency_us", "microseconds",
		"request latency distribution (log2 buckets of microseconds)").Volatile()

	j := root.Group("jobs")
	j.Uint64(&s.jobsSubmitted, "submitted", stats.Count, "jobs accepted for execution (cache hits excluded)")
	j.Uint64(&s.jobsCompleted, "completed", stats.Count, "jobs that produced a result (partial included)")
	j.Uint64(&s.jobsFailed, "failed", stats.Count, "jobs that produced no result")
	j.Uint64(&s.jobsPartial, "partial", stats.Count, "jobs whose result was salvaged from an early stop")
	j.Uint64(&s.jobsRejected, "rejected", stats.Count, "submissions refused by queue backpressure")
	j.Formula(func() float64 { return float64(s.jobs.active()) },
		"active", stats.Count, "jobs currently queued or running").Volatile()

	c := root.Group("cache")
	c.Uint64(&s.cacheHits, "hits", stats.Count, "result-cache hits (request served without simulating)")
	c.Uint64(&s.cacheMisses, "misses", stats.Count, "result-cache misses")
	c.Uint64(&s.cacheEvictions, "evictions", stats.Count, "entries evicted by the cost-aware budget, new entries dropped at once included")
	c.Uint64(&s.cacheInserts, "insertions", stats.Count, "complete results inserted into the cache")
	c.Float64(&s.cacheSaved, "saved_seconds", stats.Seconds,
		"summed recorded run time of every hit: the simulation time the cache avoided").Volatile()
	c.Formula(func() float64 { return float64(s.cache.Len()) },
		"entries", stats.Entries, "resident cache entries")
	c.Formula(func() float64 {
		total := s.cacheHits + s.cacheMisses
		if total == 0 {
			return 0
		}
		return float64(s.cacheHits) / float64(total)
	}, "hit_rate", stats.Ratio, "hits / (hits + misses)")

	r := root.Group("registry")
	r.Formula(func() float64 { return float64(s.reg.Len()) },
		"graphs", stats.Count, "registered graphs")
	r.Formula(func() float64 { return float64(s.reg.ResidentBytes()) },
		"resident_bytes", stats.Bytes, "summed CSR footprint of registered graphs")
	r.Formula(func() float64 { m, _ := s.reg.MappedCounts(); return float64(m) },
		"mapped", stats.Count, "graphs served from a live kernel mapping (page-cache backed)")
	r.Formula(func() float64 { _, u := s.reg.MappedCounts(); return float64(u) },
		"unmapped", stats.Count, "graphs read onto the heap (the fallback on platforms without mmap)")
	s.statsRoot = root
}

// StatsDump renders the service statistics tree (the /statsz payload).
func (s *Server) StatsDump() *stats.Dump {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.statsRoot.Dump(map[string]string{"component": "novad"})
}

// observeRequest records one served request into the /statsz tree.
func (s *Server) observeRequest(elapsed time.Duration, status int) {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	s.httpRequests++
	if status >= 400 {
		s.httpErrors++
	}
	s.latencyUS.Observe(uint64(elapsed.Microseconds()))
}

func (s *Server) count(c *uint64) {
	s.countN(c, 1)
}

func (s *Server) countN(c *uint64, n uint64) {
	s.statsMu.Lock()
	*c += n
	s.statsMu.Unlock()
}

// submit runs the full intake path for one request: acquire the graph,
// build the engine, consult the cache, and — on a miss — schedule the
// simulation on the queue. It returns the job record (already done for a
// cache hit) or an httpError.
func (s *Server) submit(req *JobRequest) (*job, *httpError) {
	if err := nova.CheckCell(req.Engine, req.Workload); err != nil {
		return nil, badRequest(err)
	}
	if req.TimeoutMS < 0 {
		return nil, badRequest(fmt.Errorf("service: timeout_ms = %d: use 0 for the server default or a positive bound", req.TimeoutMS))
	}
	entry, err := s.reg.Acquire(req.Graph)
	if err != nil {
		return nil, notFound(err)
	}
	if n := entry.Graph().NumVertices(); req.Root != nil && int64(*req.Root) >= int64(n) {
		entry.Release()
		return nil, badRequest(fmt.Errorf("service: root %d is not a vertex of graph %q (%d vertices)", *req.Root, req.Graph, n))
	}
	intr := sim.NewInterrupt()
	eng, err := s.buildEngine(req, intr)
	if err != nil {
		entry.Release()
		return nil, badRequest(err)
	}
	w := workloadFor(req, entry)
	key := cacheKey(eng.Fingerprint(), entry.Info().ContentHash, w, req.PRIters)

	j := &job{req: *req, created: time.Now(), done: make(chan struct{})}
	if !req.NoCache {
		if cached, cost, ok := s.cache.Get(key); ok {
			s.statsMu.Lock()
			s.cacheHits++
			s.cacheSaved += cost.Seconds()
			s.statsMu.Unlock()
			entry.Release()
			j.state = JobDone
			j.cached = true
			j.result = cached
			j.finished = time.Now()
			// The cached result tells partial/stop_reason only via its
			// body; complete runs are the only ones inserted, so the
			// record stays clean.
			close(j.done)
			s.jobs.add(j)
			return j, nil
		}
		s.count(&s.cacheMisses)
	}

	ctx, cancel := context.WithCancel(context.Background())
	j.state = JobQueued
	j.intr = intr
	j.cancel = cancel
	s.jobs.add(j)

	timeout := time.Duration(req.TimeoutMS) * time.Millisecond
	resCh := s.queue.Submit(ctx, harness.Job[*harness.Report]{
		Name:    fmt.Sprintf("%s/%s/%s", req.Engine, req.Workload, req.Graph),
		Timeout: timeout,
		OnStart: func() { j.setState(JobRunning) },
		Run: func(ctx context.Context) (*harness.Report, error) {
			return eng.RunWorkload(ctx, w)
		},
	})

	// Fast-fail backpressure: a rejected submission resolves its result
	// channel before Submit returns, so the rejection is visible here.
	select {
	case r := <-resCh:
		if errors.Is(r.Err, harness.ErrQueueFull) {
			s.count(&s.jobsRejected)
			cancel()
			entry.Release()
			j.mu.Lock()
			j.state = JobFailed
			j.errMsg = r.Err.Error()
			j.finished = time.Now()
			j.mu.Unlock()
			close(j.done)
			return nil, overloaded(r.Err)
		}
		// The job ran to completion before we got here (tiny graphs do).
		s.count(&s.jobsSubmitted)
		s.finishJob(j, r, entry, key, !req.NoCache)
		return j, nil
	default:
	}
	s.count(&s.jobsSubmitted)
	go func() {
		r := <-resCh
		s.finishJob(j, r, entry, key, !req.NoCache)
	}()
	return j, nil
}

// finishJob folds a queue result into the job record, renders the result
// bytes, inserts complete runs into the cache at the cost of their wall
// time (r.Elapsed, which excludes queue wait), releases the job's graph,
// and closes the done channel streaming clients wait on. The release
// comes before the terminal state is visible, so a client that sees the
// job finished never sees it still holding its graph.
func (s *Server) finishJob(j *job, r harness.Result[*harness.Report], entry *GraphEntry, key string, cacheable bool) {
	rep := r.Value
	j.mu.Lock()
	defer func() {
		entry.Release()
		j.finished = time.Now()
		if j.cancel != nil {
			j.cancel()
		}
		j.mu.Unlock()
		close(j.done)
	}()
	if rep == nil {
		j.state = JobFailed
		if r.Err != nil {
			j.errMsg = r.Err.Error()
		} else {
			j.errMsg = "service: job produced no report"
		}
		s.count(&s.jobsFailed)
		return
	}
	body, err := renderResult(&j.req, rep, entry.Name(), entry.Info().ContentHash)
	if err != nil {
		j.state = JobFailed
		j.errMsg = fmt.Sprintf("service: rendering result: %v", err)
		s.count(&s.jobsFailed)
		return
	}
	j.state = JobDone
	j.result = body
	j.partial = rep.Partial
	j.stopReason = rep.StopReason
	if r.Err != nil {
		j.errMsg = r.Err.Error()
	}
	s.count(&s.jobsCompleted)
	if rep.Partial {
		s.count(&s.jobsPartial)
	} else if cacheable && r.Err == nil {
		evicted := s.cache.Put(key, body, r.Elapsed)
		s.count(&s.cacheInserts)
		if evicted > 0 {
			s.countN(&s.cacheEvictions, uint64(evicted))
		}
	}
}
