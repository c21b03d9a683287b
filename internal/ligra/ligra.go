// Package ligra is a runnable Ligra-style shared-memory graph processing
// framework (Shun & Blelloch, PPoPP 2013), the software baseline of the
// paper's Fig. 4. It provides the edgeMap/vertexMap abstraction with
// Ligra's signature direction optimization — sparse frontiers push along
// out-edges, dense frontiers pull along in-edges — parallelized across
// goroutines with atomic update operators.
//
// Unlike the accelerator models, this engine is measured in wall-clock
// time: it is the "8-core x86 running Ligra" data point.
package ligra

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nova/graph"
	"nova/internal/sim"
	"nova/internal/stats"
)

// Metric names for the root-level statistics the software engine exports:
// the stable dump paths of the engine's stats tree.
const (
	MetricIterations  = "iterations"
	MetricWallSeconds = "wall_seconds"
)

// Frontier is a set of active vertices, in sparse (list) or dense (bitmap)
// representation.
type Frontier struct {
	n      int
	sparse []graph.VertexID
	dense  []uint32 // 0/1 per vertex
	isDen  bool
	count  int
}

// NewSparseFrontier builds a sparse frontier over n vertices.
func NewSparseFrontier(n int, verts []graph.VertexID) *Frontier {
	return &Frontier{n: n, sparse: verts, count: len(verts)}
}

// NewDenseFrontier builds a dense frontier from a bitmap.
func NewDenseFrontier(bits []uint32) *Frontier {
	count := 0
	for _, b := range bits {
		if b != 0 {
			count++
		}
	}
	return &Frontier{n: len(bits), dense: bits, isDen: true, count: count}
}

// Len returns the number of active vertices.
func (f *Frontier) Len() int { return f.count }

// IsEmpty reports an empty frontier.
func (f *Frontier) IsEmpty() bool { return f.count == 0 }

// Vertices returns the active set as a slice (materializing if dense).
func (f *Frontier) Vertices() []graph.VertexID {
	if !f.isDen {
		return f.sparse
	}
	out := make([]graph.VertexID, 0, f.count)
	for v, b := range f.dense {
		if b != 0 {
			out = append(out, graph.VertexID(v))
		}
	}
	return out
}

// EdgeFuncs is the operator triple of Ligra's EDGEMAP.
type EdgeFuncs struct {
	// Update attempts s→d along an edge of weight w and returns true if
	// d newly joins the output frontier. It must be safe under
	// concurrent invocation (use atomics).
	Update func(s, d graph.VertexID, w uint32) bool
	// Cond gates destinations; nil means always true.
	Cond func(d graph.VertexID) bool
}

// Engine runs edgeMap/vertexMap with a fixed worker count.
type Engine struct {
	Threads int
	// Threshold is Ligra's |frontier|+outEdges(frontier) > |E|/Threshold
	// switch to dense; 20 is the canonical value.
	Threshold int64
	// EdgesTraversed counts update attempts across the run.
	EdgesTraversed int64

	// Interrupt, when non-nil, is polled between edgeMap iterations: a
	// tripped interrupt makes the kernel return early with whatever
	// distances/ranks it has computed so far (a partial result). Kernels
	// pulse it each iteration so a stall watchdog sees progress.
	Interrupt *sim.Interrupt

	// dedupSeen/dedupGen implement generation-stamped duplicate removal
	// for sparse frontiers: one word per vertex, no clearing between
	// iterations. Like EdgesTraversed, this makes an Engine single-run
	// state — build one per run.
	dedupSeen []uint32
	dedupGen  uint32

	// Direction-optimization profile: push vs pull iteration counts and
	// frontier sizes at each EdgeMap (StatsDump reports them).
	sparseIters uint64
	denseIters  uint64
	frontierLen stats.Distribution
}

// NewEngine returns an engine using all available cores.
func NewEngine() *Engine {
	return &Engine{Threads: runtime.GOMAXPROCS(0), Threshold: 20}
}

// stopped reports whether the engine's interrupt has tripped, pulsing it
// first so iteration boundaries count as progress beats for the watchdog.
func (e *Engine) stopped() bool {
	if e.Interrupt == nil {
		return false
	}
	e.Interrupt.Pulse()
	return e.Interrupt.Err() != nil
}

func (e *Engine) parallelFor(n int, body func(lo, hi int)) {
	threads := e.Threads
	if threads < 1 {
		threads = 1
	}
	if n < 1024 || threads == 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + threads - 1) / threads
	for t := 0; t < threads; t++ {
		lo := t * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// EdgeMap applies fns along the frontier's out-edges, choosing push
// (sparse) or pull (dense, over gT's in-edges) by Ligra's density
// heuristic, and returns the next frontier.
func (e *Engine) EdgeMap(g, gT *graph.CSR, f *Frontier, fns EdgeFuncs) *Frontier {
	var frontierEdges int64
	for _, v := range f.Vertices() {
		frontierEdges += g.OutDegree(v)
	}
	e.frontierLen.Sample(float64(f.Len()))
	if gT != nil && e.Threshold > 0 && int64(f.Len())+frontierEdges > g.NumEdges()/e.Threshold {
		e.denseIters++
		return e.edgeMapDense(g, gT, f, fns)
	}
	e.sparseIters++
	return e.edgeMapSparse(g, f, fns)
}

func (e *Engine) edgeMapSparse(g *graph.CSR, f *Frontier, fns EdgeFuncs) *Frontier {
	verts := f.Vertices()
	next := make([][]graph.VertexID, e.Threads)
	var traversed int64
	var wg sync.WaitGroup
	threads := e.Threads
	if threads < 1 {
		threads = 1
	}
	chunk := (len(verts) + threads - 1) / threads
	for t := 0; t < threads; t++ {
		lo := t * chunk
		hi := lo + chunk
		if hi > len(verts) {
			hi = len(verts)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(t, lo, hi int) {
			defer wg.Done()
			var local []graph.VertexID
			var cnt int64
			for _, s := range verts[lo:hi] {
				elo, ehi := g.RowPtr[s], g.RowPtr[s+1]
				for i := elo; i < ehi; i++ {
					d := g.Dst[i]
					if fns.Cond != nil && !fns.Cond(d) {
						continue
					}
					cnt++
					if fns.Update(s, d, g.Weight[i]) {
						local = append(local, d)
					}
				}
			}
			next[t] = local
			atomic.AddInt64(&traversed, cnt)
		}(t, lo, hi)
	}
	wg.Wait()
	e.EdgesTraversed += traversed
	var out []graph.VertexID
	for _, l := range next {
		out = append(out, l...)
	}
	return NewSparseFrontier(g.NumVertices(), out)
}

func (e *Engine) edgeMapDense(g, gT *graph.CSR, f *Frontier, fns EdgeFuncs) *Frontier {
	n := g.NumVertices()
	inF := make([]uint32, n)
	for _, v := range f.Vertices() {
		inF[v] = 1
	}
	out := make([]uint32, n)
	var traversed int64
	e.parallelFor(n, func(lo, hi int) {
		var cnt int64
		for d := lo; d < hi; d++ {
			dv := graph.VertexID(d)
			if fns.Cond != nil && !fns.Cond(dv) {
				continue
			}
			elo, ehi := gT.RowPtr[d], gT.RowPtr[d+1]
			for i := elo; i < ehi; i++ {
				s := gT.Dst[i]
				if inF[s] == 0 {
					continue
				}
				cnt++
				if fns.Update(s, dv, gT.Weight[i]) {
					atomic.StoreUint32(&out[d], 1)
				}
			}
		}
		atomic.AddInt64(&traversed, cnt)
	})
	e.EdgesTraversed += traversed
	return NewDenseFrontier(out)
}

// VertexMap applies fn to every frontier vertex, keeping those for which
// it returns true.
func (e *Engine) VertexMap(f *Frontier, fn func(v graph.VertexID) bool) *Frontier {
	verts := f.Vertices()
	keep := make([]graph.VertexID, 0, len(verts))
	for _, v := range verts {
		if fn(v) {
			keep = append(keep, v)
		}
	}
	return NewSparseFrontier(f.n, keep)
}

// Result reports wall-clock performance of a software run.
type Result struct {
	Seconds        float64
	EdgesTraversed int64
	Iterations     int
}

// GTEPS returns traversed giga-edges per second.
func (r Result) GTEPS() float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return float64(r.EdgesTraversed) / r.Seconds / 1e9
}

// StatsDump renders a finished run's statistics as a dump. Wall-clock time
// is always volatile (host timing); with more than one worker thread the
// traversal counts and direction profile are volatile too, because atomic
// update races make them scheduling-dependent.
func (e *Engine) StatsDump(r Result, meta map[string]string) *stats.Dump {
	root := stats.NewRoot()
	seconds, iters, edges := r.Seconds, r.Iterations, r.EdgesTraversed
	root.Formula(func() float64 { return seconds },
		MetricWallSeconds, stats.Seconds, "host wall-clock time of the run").Volatile()
	root.Formula(func() float64 { return float64(iters) },
		MetricIterations, stats.Count, "edgeMap iterations until the frontier emptied")
	racy := []*stats.Stat{
		root.Formula(func() float64 { return float64(edges) },
			"edges_traversed", stats.Count, "edge update attempts across the run"),
		root.Uint64(&e.sparseIters, "sparse_iterations", stats.Count, "edgeMap iterations that pushed along out-edges"),
		root.Uint64(&e.denseIters, "dense_iterations", stats.Count, "edgeMap iterations that pulled along in-edges"),
		root.Distribution(&e.frontierLen, "frontier_len", stats.Entries, "active-frontier size at each edgeMap"),
	}
	if e.Threads > 1 {
		for _, s := range racy {
			s.Volatile()
		}
	}
	return root.Dump(meta)
}

// writeMinInt64 atomically lowers target to val; reports whether the write
// crossed from ≥ old to the new minimum (i.e. we won the race).
func writeMinInt64(addr *int64, val int64) bool {
	for {
		old := atomic.LoadInt64(addr)
		if val >= old {
			return false
		}
		if atomic.CompareAndSwapInt64(addr, old, val) {
			return true
		}
	}
}

const inf = int64(1) << 62

// BFS runs direction-optimized breadth-first search and returns hop
// distances (-1 when unreached).
func (e *Engine) BFS(g, gT *graph.CSR, root graph.VertexID) ([]int64, Result) {
	start := time.Now()
	e.EdgesTraversed = 0
	n := g.NumVertices()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = inf
	}
	dist[root] = 0
	f := NewSparseFrontier(n, []graph.VertexID{root})
	level := int64(0)
	iters := 0
	for !f.IsEmpty() && !e.stopped() {
		level++
		iters++
		lv := level
		f = e.EdgeMap(g, gT, f, EdgeFuncs{
			Update: func(s, d graph.VertexID, w uint32) bool {
				return atomic.CompareAndSwapInt64(&dist[d], inf, lv)
			},
			Cond: func(d graph.VertexID) bool { return atomic.LoadInt64(&dist[d]) == inf },
		})
	}
	for i := range dist {
		if dist[i] == inf {
			dist[i] = -1
		}
	}
	return dist, Result{Seconds: time.Since(start).Seconds(), EdgesTraversed: e.EdgesTraversed, Iterations: iters}
}

// SSSP runs frontier-based Bellman-Ford and returns weighted distances.
func (e *Engine) SSSP(g, gT *graph.CSR, root graph.VertexID) ([]int64, Result) {
	start := time.Now()
	e.EdgesTraversed = 0
	n := g.NumVertices()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = inf
	}
	dist[root] = 0
	f := NewSparseFrontier(n, []graph.VertexID{root})
	iters := 0
	for !f.IsEmpty() && iters < 2*n && !e.stopped() {
		iters++
		f = e.EdgeMap(g, nil, f, EdgeFuncs{ // push-only: pull breaks min-relaxation monotonicity bookkeeping
			Update: func(s, d graph.VertexID, w uint32) bool {
				nd := atomic.LoadInt64(&dist[s]) + int64(w)
				return writeMinInt64(&dist[d], nd)
			},
		})
		f = e.dedup(f)
	}
	for i := range dist {
		if dist[i] == inf {
			dist[i] = -1
		}
	}
	return dist, Result{Seconds: time.Since(start).Seconds(), EdgesTraversed: e.EdgesTraversed, Iterations: iters}
}

// dedup removes duplicate vertices from a sparse frontier in place,
// keeping first occurrences in order. The stamp array replaces the old
// per-iteration map: after the first frontier it allocates nothing.
func (e *Engine) dedup(f *Frontier) *Frontier {
	if f.isDen {
		return f
	}
	if len(e.dedupSeen) < f.n {
		e.dedupSeen = make([]uint32, f.n)
		e.dedupGen = 0
	}
	if e.dedupGen == ^uint32(0) {
		clear(e.dedupSeen)
		e.dedupGen = 0
	}
	e.dedupGen++
	gen := e.dedupGen
	out := f.sparse[:0]
	for _, v := range f.sparse {
		if e.dedupSeen[v] != gen {
			e.dedupSeen[v] = gen
			out = append(out, v)
		}
	}
	return NewSparseFrontier(f.n, out)
}

// CC runs label propagation over a symmetric graph and returns component
// labels (minimum vertex ID per component).
func (e *Engine) CC(g *graph.CSR) ([]int64, Result) {
	start := time.Now()
	e.EdgesTraversed = 0
	n := g.NumVertices()
	label := make([]int64, n)
	init := make([]graph.VertexID, n)
	for i := range label {
		label[i] = int64(i)
		init[i] = graph.VertexID(i)
	}
	f := NewSparseFrontier(n, init)
	iters := 0
	for !f.IsEmpty() && iters < n && !e.stopped() {
		iters++
		f = e.EdgeMap(g, g, f, EdgeFuncs{
			Update: func(s, d graph.VertexID, w uint32) bool {
				return writeMinInt64(&label[d], atomic.LoadInt64(&label[s]))
			},
		})
		f = e.dedup(f)
	}
	return label, Result{Seconds: time.Since(start).Seconds(), EdgesTraversed: e.EdgesTraversed, Iterations: iters}
}

// PR runs pull-based PageRank with the same message-driven semantics as the
// accelerator engines (vertices with no in-contributions keep their rank).
func (e *Engine) PR(g, gT *graph.CSR, damping float64, iters int) ([]float64, Result) {
	start := time.Now()
	n := g.NumVertices()
	rank := make([]float64, n)
	for i := range rank {
		rank[i] = 1.0 / float64(n)
	}
	next := make([]float64, n)
	var traversed int64
	done := 0
	for it := 0; it < iters && !e.stopped(); it++ {
		done++
		e.parallelFor(n, func(lo, hi int) {
			var cnt int64
			for d := lo; d < hi; d++ {
				sum := 0.0
				got := false
				elo, ehi := gT.RowPtr[d], gT.RowPtr[d+1]
				for i := elo; i < ehi; i++ {
					s := gT.Dst[i]
					deg := g.OutDegree(s)
					if deg == 0 {
						continue
					}
					sum += rank[s] / float64(deg)
					got = true
					cnt++
				}
				if got {
					next[d] = (1-damping)/float64(n) + damping*sum
				} else {
					next[d] = rank[d]
				}
			}
			atomic.AddInt64(&traversed, cnt)
		})
		rank, next = next, rank
	}
	// done, not iters: an interrupted run reports the iterations that
	// actually executed, so partial reports are honest about coverage.
	return rank, Result{Seconds: time.Since(start).Seconds(), EdgesTraversed: traversed, Iterations: done}
}

// BC runs Brandes-style betweenness (forward σ pass + backward δ pass)
// with level-synchronous frontiers.
func (e *Engine) BC(g, gT *graph.CSR, root graph.VertexID) ([]float64, Result) {
	start := time.Now()
	e.EdgesTraversed = 0
	n := g.NumVertices()
	dist := make([]int64, n)
	sigma := make([]float64, n)
	for i := range dist {
		dist[i] = inf
	}
	dist[root] = 0
	sigma[root] = 1
	var levels [][]graph.VertexID
	f := NewSparseFrontier(n, []graph.VertexID{root})
	level := int64(0)
	var traversed int64
	for !f.IsEmpty() && !e.stopped() {
		levels = append(levels, f.Vertices())
		level++
		lv := level
		// Sequentialized σ accumulation per level keeps determinism;
		// parallel push for discovery.
		var nextVerts []graph.VertexID
		for _, s := range f.Vertices() {
			elo, ehi := g.RowPtr[s], g.RowPtr[s+1]
			for i := elo; i < ehi; i++ {
				d := g.Dst[i]
				traversed++
				if dist[d] == inf {
					dist[d] = lv
					nextVerts = append(nextVerts, d)
				}
				if dist[d] == lv {
					sigma[d] += sigma[s]
				}
			}
		}
		f = NewSparseFrontier(n, nextVerts)
	}
	delta := make([]float64, n)
	for l := len(levels) - 1; l >= 1 && !e.stopped(); l-- {
		for _, w := range levels[l] {
			elo, ehi := gT.RowPtr[w], gT.RowPtr[w+1]
			for i := elo; i < ehi; i++ {
				v := gT.Dst[i]
				traversed++
				if dist[v] == dist[w]-1 && sigma[w] > 0 {
					delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
				}
			}
		}
	}
	delta[root] = 0
	return delta, Result{Seconds: time.Since(start).Seconds(), EdgesTraversed: traversed, Iterations: len(levels)}
}
