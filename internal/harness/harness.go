// Package harness unifies the four execution engines (NOVA, PolyGraph,
// Ligra, extmem) behind one Engine interface and fans independent
// simulation jobs out over a worker pool. Every figure and table of the
// evaluation is a grid of independent cells; the harness is the
// substrate that runs those cells concurrently while keeping result
// order deterministic.
//
// The package deliberately depends only on graph, program and stats so
// the nova root package can implement adapters without an import cycle.
package harness

import (
	"context"

	"nova/graph"
	"nova/internal/stats"
	"nova/program"
)

// Workload names one cell of the evaluation grid: a named workload on a
// graph with its traversal root. "cc" expects a symmetrized graph in G
// (G.Symmetrize()); engines that read in-edges take G.Transpose()
// themselves, a view the graph builds once and shares.
type Workload struct {
	// Name is one of "bfs", "sssp", "cc", "pr", "bc", or the nova-only
	// spill-stress workload "prdelta".
	Name string
	// G is the graph to process (symmetrized for "cc").
	G *graph.CSR
	// Root is the traversal source for bfs/sssp/bc.
	Root graph.VertexID
	// PRIters configures PageRank (≤0 means 10).
	PRIters int
	// Tier labels the scale tier the cell belongs to ("small", "medium",
	// "full", "large"; empty when the caller doesn't run tiered sweeps).
	// It is carried verbatim into the Report so artifacts from different
	// tiers never get compared against each other.
	Tier string
	// MaxEvents overrides the engine's event budget for this cell (0 =
	// the engine default). Only simulated backends with an event budget
	// honor it; the chaos harness uses it to force budget exhaustion.
	MaxEvents uint64
}

// Engine is the unified view of an execution backend. Implementations
// must be safe for concurrent RunWorkload calls: each call owns a private
// simulation instance.
type Engine interface {
	// Name identifies the backend ("nova", "polygraph", "ligra",
	// "extmem").
	Name() string
	// Fingerprint is a stable, human-readable rendering of the engine's
	// configuration, so two reports are comparable iff fingerprints match.
	Fingerprint() string
	// RunWorkload executes one cell and returns the unified report. ctx
	// cancellation must stop the underlying simulation cooperatively
	// (within one poll interval); on a cooperative stop implementations
	// return BOTH a partial report (Partial set, with its StopReason) and
	// the error, so sweeps can render partial cells.
	RunWorkload(ctx context.Context, w Workload) (*Report, error)
}

// Report is the engine-agnostic outcome of one run. Backend-specific
// detail (slice counts, cache hit rates, spill counters, …) travels in
// the stats Dump, read by record path through Metric, so the experiment
// layer never needs the native report types.
type Report struct {
	// Engine and Fingerprint identify the backend and its configuration.
	Engine      string
	Fingerprint string
	// Workload is the cell's workload name.
	Workload string
	// Tier echoes Workload.Tier — the scale tier the cell ran at.
	Tier string
	// Stats is the engine-agnostic summary common to all backends.
	Stats program.RunStats
	// SequentialEdges is the work-efficiency denominator (Beamer's
	// metric): edges a sequential implementation traverses.
	SequentialEdges int64
	// Props holds final vertex properties (nil for "bc").
	Props []program.Prop
	// Scores holds BC dependency values (nil otherwise).
	Scores []float64
	// Dump is the full hierarchical statistics dump, when the backend
	// provides one (nil for two-phase workloads such as "bc"). The record
	// paths each built-in adapter reports are documented next to it.
	Dump *stats.Dump
	// Shards is the worker-goroutine count the backend simulated with
	// (0 for backends without a sharded kernel), and the two wall-clock
	// fields split host time between in-window execution and barrier
	// synchronization for sharded runs.
	Shards             int
	WindowWallSeconds  float64
	BarrierWallSeconds float64
	// Partial marks a salvaged report: the run stopped early and the
	// stats cover only the work completed before the stop. StopReason
	// classifies why ("cancelled", "deadline", "budget", "stalled").
	Partial    bool
	StopReason string
}

// Metric returns the stats-dump record at path key ("cycles",
// "network.inter_messages", …), or 0 when absent or when the report has
// no dump.
func (r *Report) Metric(key string) float64 {
	if r == nil || r.Dump == nil {
		return 0
	}
	v, _ := r.Dump.Value(key)
	return v
}

// WorkEfficiency returns sequential edges / traversed edges.
func (r *Report) WorkEfficiency() float64 {
	return r.Stats.WorkEfficiency(r.SequentialEdges)
}

// EffectiveGTEPS returns useful giga-edges per second — the throughput
// metric the paper's figures plot.
func (r *Report) EffectiveGTEPS() float64 {
	return r.Stats.EffectiveGTEPS(r.SequentialEdges)
}
