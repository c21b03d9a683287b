// Package program defines the vertex-centric, message-driven programming
// model shared by every execution engine in this repository: the NOVA
// accelerator model, the PolyGraph baseline, the Ligra-style software
// framework, and the functional reference executor.
//
// Following Section II-A of the paper, a workload is expressed as a
// reduce function (merge an incoming message's update into a vertex
// property) and a propagate function (derive the update sent along each
// out-edge). Asynchronous workloads (BFS, SSSP, CC) activate a vertex
// whenever reduce changes its property; bulk-synchronous workloads (PR, BC)
// accumulate messages into next_prop and fold them in with Apply at the
// epoch barrier.
package program

import (
	"math"

	"nova/graph"
)

// Prop is a vertex property or message update. It is an opaque 64-bit
// value; integer workloads store magnitudes directly and floating-point
// workloads store math.Float64bits. The simulated vertex record is 16 bytes
// (cur_prop, next_prop, active flags), matching the paper's sizing.
type Prop uint64

// Inf is the "unreached" property for distance-like workloads.
const Inf Prop = math.MaxUint64

// FromFloat encodes a float64 property.
func FromFloat(f float64) Prop { return Prop(math.Float64bits(f)) }

// Float decodes a float64 property.
func (p Prop) Float() float64 { return math.Float64frombits(uint64(p)) }

// Mode selects the execution model (Section III-A: NOVA supports both).
type Mode int

const (
	// Async runs all units concurrently until global quiescence.
	Async Mode = iota
	// BSP alternates message-processing and message-generation epochs
	// separated by barriers.
	BSP
)

func (m Mode) String() string {
	if m == Async {
		return "async"
	}
	return "bsp"
}

// Message is an update in flight: ⟨u, δ⟩ in the paper's notation.
type Message struct {
	Dst   graph.VertexID
	Delta Prop
}

// Program describes a vertex-centric workload.
type Program interface {
	// Name identifies the workload ("bfs", "sssp", ...).
	Name() string
	// Mode selects async or BSP execution.
	Mode() Mode
	// InitProp returns vertex v's initial property.
	InitProp(v graph.VertexID, g *graph.CSR) Prop
	// InitActive returns the initially active vertices (the data-driven
	// seed for BFS-like workloads, or every vertex for topology-driven
	// ones).
	InitActive(g *graph.CSR) []graph.VertexID
	// Reduce merges delta into the current value for vertex v and
	// returns the result. For async programs "current value" is the
	// live property (activation = result != cur); for BSP programs it
	// is the epoch accumulator.
	Reduce(v graph.VertexID, cur, delta Prop) Prop
	// Propagate computes the update sent along one out-edge of a vertex
	// whose property is prop, with edge weight w and out-degree outDeg.
	// ok=false suppresses the message.
	Propagate(prop Prop, w uint32, outDeg int64) (delta Prop, ok bool)
}

// BSPProgram is implemented by bulk-synchronous workloads.
type BSPProgram interface {
	Program
	// AccumInit is the identity accumulator value each epoch starts from.
	AccumInit() Prop
	// Apply folds the epoch's accumulator into the property at the
	// barrier and reports whether the vertex is active next epoch.
	Apply(v graph.VertexID, cur, accum Prop, g *graph.CSR) (newProp Prop, activate bool)
	// MaxEpochs bounds the number of epochs (0 = unbounded).
	MaxEpochs() int
}

// ScheduledProgram is a BSP program whose per-epoch active set is dictated
// externally (the backward sweep of betweenness centrality walks the BFS
// levels in reverse regardless of message arrival).
type ScheduledProgram interface {
	BSPProgram
	// EpochActive returns the vertices that must be active in the given
	// epoch in addition to message-driven activations, or nil.
	EpochActive(epoch int, g *graph.CSR) []graph.VertexID
}

// DeltaMerger is implemented by programs whose in-flight deltas can be
// pre-combined before reaching the destination vertex: MergeDelta must
// satisfy Reduce(Reduce(cur,a),b) == Reduce(cur, MergeDelta(a,b)) for any
// cur. The fabric's coalescing stage uses it to fold same-destination-
// vertex updates waiting for link bandwidth into a single message. The
// equality is exact for min-style reductions (BFS/SSSP/CC); for
// floating-point sums (PR-delta) it only reassociates the additions, so
// results stay deterministic but can differ in final bits from an
// uncoalesced run.
type DeltaMerger interface {
	// MergeDelta combines two deltas addressed to the same vertex.
	MergeDelta(a, b Prop) Prop
}

// RunStats aggregates what every engine reports about one execution.
type RunStats struct {
	// SimSeconds is the modeled execution time (wall-clock seconds for
	// the software engine).
	SimSeconds float64
	// EdgesTraversed counts propagations that produced a message.
	EdgesTraversed int64
	// MessagesSent counts messages injected into the network/queues.
	MessagesSent int64
	// MessagesCoalesced counts reductions that merged into a vertex that
	// was already pending propagation — work the engine avoided.
	MessagesCoalesced int64
	// Epochs is the number of BSP epochs executed (0 for async).
	Epochs int
}

// TEPS returns raw traversed-edges-per-second.
func (s RunStats) TEPS() float64 {
	if s.SimSeconds <= 0 {
		return 0
	}
	return float64(s.EdgesTraversed) / s.SimSeconds
}

// EffectiveGTEPS is the paper's throughput metric: useful (sequential)
// edges per simulated second, in billions. sequentialEdges is the
// work-efficiency denominator from the reference implementation.
func (s RunStats) EffectiveGTEPS(sequentialEdges int64) float64 {
	if s.SimSeconds <= 0 {
		return 0
	}
	return float64(sequentialEdges) / s.SimSeconds / 1e9
}

// WorkEfficiency is Beamer's metric: edges a sequential implementation
// traverses over edges this execution traversed (≤ 1 for asynchronous
// execution with redundant traversals). A run that traversed no edge
// scores 1 only when the sequential run needs none either; otherwise the
// ratio cannot be formed, and it scores 0, as EffectiveGTEPS does — a run
// stopped before its first edge did none of the work.
func (s RunStats) WorkEfficiency(sequentialEdges int64) float64 {
	if s.EdgesTraversed == 0 {
		if sequentialEdges == 0 {
			return 1
		}
		return 0
	}
	return float64(sequentialEdges) / float64(s.EdgesTraversed)
}

// Runner abstracts an execution engine so workload harnesses (e.g. the
// two-phase betweenness centrality driver) can run on any of them.
type Runner interface {
	// RunProgram executes p on g and returns the final vertex properties
	// and execution statistics.
	RunProgram(p Program, g *graph.CSR) ([]Prop, RunStats, error)
}

func allVertices(g *graph.CSR) []graph.VertexID {
	out := make([]graph.VertexID, g.NumVertices())
	for v := range out {
		out[v] = graph.VertexID(v)
	}
	return out
}
