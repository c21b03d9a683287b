package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"nova"
	"nova/graph"
	"nova/internal/harness"
	"nova/internal/sim"
	"nova/internal/stats"
)

// JobState is the lifecycle of a submitted job. A job moves
// queued → running → done|failed; a cache hit is born done. Cancellation
// is not a state of its own — a cancelled simulation salvages a partial
// report, so it lands in done with Partial set and StopReason
// "cancelled" (only a job with nothing to salvage lands in failed).
type JobState string

const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// JobRequest is the POST /jobs body: one sweep cell — engine × workload ×
// configuration — against a registered graph.
type JobRequest struct {
	// Engine is "nova", "polygraph", "ligra", or "extmem".
	Engine string `json:"engine"`
	// Workload is "bfs", "sssp", "cc", "pr", "bc", or "prdelta".
	Workload string `json:"workload"`
	// Graph names a registered graph.
	Graph string `json:"graph"`
	// Root overrides the traversal source (default: the graph's highest
	// out-degree vertex, the convention every CLI runner uses). It must
	// name a vertex of the graph.
	Root *uint32 `json:"root,omitempty"`
	// PRIters configures PageRank (≤0 means 10).
	PRIters int `json:"pr_iters,omitempty"`
	// TimeoutMS bounds the job's wall clock (0 = the server default;
	// negative is rejected). A timed-out simulation stops cooperatively
	// and reports a partial result with stop_reason "deadline".
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxEvents caps the simulated event budget (0 = engine default).
	MaxEvents uint64 `json:"max_events,omitempty"`
	// NoCache bypasses the result cache in both directions.
	NoCache bool `json:"no_cache,omitempty"`
	// The engine blocks decode straight into the engines' public config
	// structs, whose json tags are the wire names. The POST /jobs handler
	// pre-fills each block with its engine's defaults (newJobRequest), so
	// a body overlays only the keys it names; a nil block means the
	// defaults. Each block configures only its own engine.
	Nova      *nova.Config            `json:"nova,omitempty"`
	PolyGraph *nova.PolyGraphBaseline `json:"polygraph,omitempty"`
	Ligra     *nova.Software          `json:"ligra,omitempty"`
	Extmem    *nova.ExternalMemory    `json:"extmem,omitempty"`
}

// newJobRequest returns a request whose engine blocks hold their engines'
// defaults: decoding a body into it keeps every omitted key at its
// default, while the decoder still rejects unknown keys inside a block.
func newJobRequest() *JobRequest {
	cfg := nova.DefaultConfig()
	return &JobRequest{Nova: &cfg, PolyGraph: &nova.PolyGraphBaseline{},
		Ligra: &nova.Software{}, Extmem: &nova.ExternalMemory{}}
}

// JobStatus is the wire-format view of a job record (GET /jobs/{id} and
// the POST /jobs response).
type JobStatus struct {
	ID       string   `json:"id"`
	State    JobState `json:"state"`
	Engine   string   `json:"engine"`
	Workload string   `json:"workload"`
	Graph    string   `json:"graph"`
	// Cached marks a job served from the result cache without running.
	Cached bool `json:"cached"`
	// Beats is the simulation's liveness counter (sim.Interrupt beats) —
	// nonzero only for the nova engine, which exposes its interrupt.
	Beats uint64 `json:"beats"`
	// ElapsedMS is wall clock since submission (until completion, then
	// frozen at the total).
	ElapsedMS int64 `json:"elapsed_ms"`
	// Partial and StopReason mirror the salvaged report of a run that
	// stopped early ("cancelled", "deadline", "budget", "stalled").
	Partial    bool   `json:"partial,omitempty"`
	StopReason string `json:"stop_reason,omitempty"`
	// Error is the failure message of a failed job.
	Error string `json:"error,omitempty"`
}

// JobResult is the rendered outcome of a run — what GET /jobs/{id}/result
// returns and what the cache stores (as marshaled bytes, so warm hits are
// bit-identical to the cold run).
type JobResult struct {
	Engine      string `json:"engine"`
	Fingerprint string `json:"fingerprint"`
	Workload    string `json:"workload"`
	Graph       string `json:"graph"`
	ContentHash string `json:"content_hash"`

	SimSeconds      float64 `json:"sim_seconds"`
	EdgesTraversed  int64   `json:"edges_traversed"`
	MessagesSent    int64   `json:"messages_sent"`
	Epochs          int     `json:"epochs,omitempty"`
	SequentialEdges int64   `json:"sequential_edges"`
	WorkEfficiency  float64 `json:"work_efficiency"`
	EffectiveGTEPS  float64 `json:"effective_gteps"`
	Shards          int     `json:"shards,omitempty"`

	Partial    bool   `json:"partial,omitempty"`
	StopReason string `json:"stop_reason,omitempty"`

	// Dump is the full hierarchical statistics dump (nil for the
	// two-phase "bc" workload, which has no merged dump).
	Dump *stats.Dump `json:"dump,omitempty"`
}

// job is one tracked submission.
type job struct {
	mu         sync.Mutex
	id         string
	req        JobRequest
	state      JobState
	cached     bool
	created    time.Time
	finished   time.Time
	intr       *sim.Interrupt
	cancel     context.CancelFunc
	result     []byte
	errMsg     string
	partial    bool
	stopReason string
	done       chan struct{}
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	elapsed := time.Since(j.created)
	if !j.finished.IsZero() {
		elapsed = j.finished.Sub(j.created)
	}
	var beats uint64
	if j.intr != nil {
		beats = j.intr.Beats()
	}
	return JobStatus{
		ID:         j.id,
		State:      j.state,
		Engine:     j.req.Engine,
		Workload:   j.req.Workload,
		Graph:      j.req.Graph,
		Cached:     j.cached,
		Beats:      beats,
		ElapsedMS:  elapsed.Milliseconds(),
		Partial:    j.partial,
		StopReason: j.stopReason,
		Error:      j.errMsg,
	}
}

// terminal reports whether the job reached a terminal state.
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == JobDone || j.state == JobFailed
}

func (j *job) setState(s JobState) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
}

// jobTable tracks submissions by ID, retaining at most cap finished
// records (oldest pruned first) so a long-lived daemon's memory stays
// bounded.
type jobTable struct {
	mu    sync.Mutex
	cap   int
	next  uint64
	jobs  map[string]*job
	order []string
}

func newJobTable(capacity int) *jobTable {
	if capacity <= 0 {
		capacity = 1024
	}
	return &jobTable{cap: capacity, jobs: make(map[string]*job)}
}

func (t *jobTable) add(j *job) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	j.id = fmt.Sprintf("j-%06d", t.next)
	t.jobs[j.id] = j
	t.order = append(t.order, j.id)
	// Prune oldest finished records beyond the cap; never drop live jobs.
	for len(t.jobs) > t.cap {
		if !t.pruneOldestFinished() {
			break // every record is live; let the table exceed cap
		}
	}
	return j.id
}

// pruneOldestFinished drops the oldest finished record and reports
// whether there was one. A finished head, the usual case once the table
// is full, goes in O(1); only a live head makes it scan.
func (t *jobTable) pruneOldestFinished() bool {
	for i, id := range t.order {
		if !t.jobs[id].terminal() {
			continue
		}
		delete(t.jobs, id)
		if i == 0 {
			t.order = t.order[1:]
		} else {
			t.order = append(t.order[:i], t.order[i+1:]...)
		}
		return true
	}
	return false
}

func (t *jobTable) get(id string) (*job, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	return j, ok
}

func (t *jobTable) list() []*job {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*job, 0, len(t.jobs))
	for _, id := range t.order {
		if j, ok := t.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

func (t *jobTable) active() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, j := range t.jobs {
		j.mu.Lock()
		if j.state == JobQueued || j.state == JobRunning {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

// cacheKey derives the result-cache key for one cell: the engine's
// configuration fingerprint (which PR 6 deliberately kept shard-count
// free — results are bit-identical at every worker count, so shards must
// NOT split the cache), the graph's content hash from the CSR container
// header, and the workload coordinates. Two requests collide exactly when
// their runs are guaranteed byte-identical.
func cacheKey(fingerprint string, contentHash uint32, w harness.Workload, prIters int) string {
	return fmt.Sprintf("%s|%08x|%s|root=%d|pr=%d|budget=%d",
		fingerprint, contentHash, w.Name, w.Root, prIters, w.MaxEvents)
}

// EngineBuilder assembles the harness engine for one request. obs is the
// job's observer interrupt: builders wire it into engines that support
// one (the NOVA accelerator) so the job's progress beats are visible to
// streaming clients. The Server's default builder is BuildEngine; tests
// swap in wrappers (e.g. a chaos fault injector around the same engine).
type EngineBuilder func(req *JobRequest, obs *sim.Interrupt) (harness.Engine, error)

// BuildEngine is the default EngineBuilder: it validates the request's
// block for its engine (nil means the defaults) and wires the observer
// into nova runs.
func BuildEngine(req *JobRequest, obs *sim.Interrupt) (harness.Engine, error) {
	switch req.Engine {
	case "nova":
		cfg := valueOr(req.Nova, nova.DefaultConfig())
		cfg.Observer = obs
		acc, err := nova.New(cfg)
		if err != nil {
			return nil, err
		}
		return acc.Engine(), nil
	case "polygraph":
		b := valueOr(req.PolyGraph, nova.PolyGraphBaseline{})
		if err := b.Validate(); err != nil {
			return nil, err
		}
		return b.Engine(), nil
	case "ligra":
		s := valueOr(req.Ligra, nova.Software{})
		if err := s.Validate(); err != nil {
			return nil, err
		}
		return s.Engine(), nil
	case "extmem":
		b := valueOr(req.Extmem, nova.ExternalMemory{})
		if err := b.Validate(); err != nil {
			return nil, err
		}
		return b.Engine(), nil
	default:
		return nil, fmt.Errorf("service: unknown engine %q", req.Engine)
	}
}

// valueOr returns a copy of *p, or def when p is nil.
func valueOr[T any](p *T, def T) T {
	if p == nil {
		return def
	}
	return *p
}

// renderResult marshals the canonical result JSON for a completed (or
// salvaged-partial) run. encoding/json sorts map keys, so identical
// reports render to identical bytes.
func renderResult(req *JobRequest, rep *harness.Report, graphName string, contentHash uint32) ([]byte, error) {
	res := JobResult{
		Engine:          rep.Engine,
		Fingerprint:     rep.Fingerprint,
		Workload:        rep.Workload,
		Graph:           graphName,
		ContentHash:     fmt.Sprintf("%08x", contentHash),
		SimSeconds:      rep.Stats.SimSeconds,
		EdgesTraversed:  rep.Stats.EdgesTraversed,
		MessagesSent:    rep.Stats.MessagesSent,
		Epochs:          rep.Stats.Epochs,
		SequentialEdges: rep.SequentialEdges,
		WorkEfficiency:  rep.WorkEfficiency(),
		EffectiveGTEPS:  rep.EffectiveGTEPS(),
		Shards:          rep.Shards,
		Partial:         rep.Partial,
		StopReason:      rep.StopReason,
		Dump:            rep.Dump,
	}
	return json.Marshal(res)
}

// workloadFor binds the request to its graph: "cc" runs on the
// symmetrized view, which the graph builds once and shares.
func workloadFor(req *JobRequest, e *GraphEntry) harness.Workload {
	g := e.Graph()
	if req.Workload == "cc" {
		g = g.Symmetrize()
	}
	root := e.Root()
	if req.Root != nil {
		root = graph.VertexID(*req.Root)
	}
	return harness.Workload{
		Name:      req.Workload,
		G:         g,
		Root:      root,
		PRIters:   req.PRIters,
		MaxEvents: req.MaxEvents,
	}
}
