package program

import (
	"math"

	"nova/graph"
)

// The five workloads of the paper's evaluation (Section V): BFS, CC and
// SSSP in asynchronous mode; PR and BC in bulk-synchronous mode.

// bfs computes hop distances from a root.
type bfs struct{ root graph.VertexID }

// NewBFS returns asynchronous breadth-first search from root (distances in
// hops, Algorithm 1 with weight ≡ 1).
func NewBFS(root graph.VertexID) Program { return bfs{root} }

func (bfs) Name() string { return "bfs" }
func (bfs) Mode() Mode   { return Async }

func (b bfs) InitProp(v graph.VertexID, g *graph.CSR) Prop {
	if v == b.root {
		return 0
	}
	return Inf
}

func (b bfs) InitActive(g *graph.CSR) []graph.VertexID { return []graph.VertexID{b.root} }

func (bfs) Reduce(_ graph.VertexID, cur, delta Prop) Prop {
	if delta < cur {
		return delta
	}
	return cur
}

// MergeDelta implements DeltaMerger: min-combining in-flight deltas is
// exact for the monotone min reduction.
func (bfs) MergeDelta(a, b Prop) Prop {
	if b < a {
		return b
	}
	return a
}

func (bfs) Propagate(prop Prop, _ uint32, _ int64) (Prop, bool) {
	return prop + 1, true
}

// sssp computes shortest-path distances from a root using edge weights
// (the decoupled message-driven SSSP of Algorithm 1).
type sssp struct{ root graph.VertexID }

// NewSSSP returns asynchronous single-source shortest paths from root.
func NewSSSP(root graph.VertexID) Program { return sssp{root} }

func (sssp) Name() string { return "sssp" }
func (sssp) Mode() Mode   { return Async }

func (s sssp) InitProp(v graph.VertexID, g *graph.CSR) Prop {
	if v == s.root {
		return 0
	}
	return Inf
}

func (s sssp) InitActive(g *graph.CSR) []graph.VertexID { return []graph.VertexID{s.root} }

func (sssp) Reduce(_ graph.VertexID, cur, delta Prop) Prop {
	if delta < cur {
		return delta
	}
	return cur
}

// MergeDelta implements DeltaMerger (exact: min is associative).
func (sssp) MergeDelta(a, b Prop) Prop {
	if b < a {
		return b
	}
	return a
}

func (sssp) Propagate(prop Prop, w uint32, _ int64) (Prop, bool) {
	return prop + Prop(w), true
}

// cc computes connected components by label propagation (min label wins).
// Run it on a symmetrized graph.
type cc struct{}

// NewCC returns asynchronous connected components via min-label
// propagation. The input graph must be symmetric.
func NewCC() Program { return cc{} }

func (cc) Name() string { return "cc" }
func (cc) Mode() Mode   { return Async }

func (cc) InitProp(v graph.VertexID, g *graph.CSR) Prop { return Prop(v) }

func (cc) InitActive(g *graph.CSR) []graph.VertexID { return allVertices(g) }

func (cc) Reduce(_ graph.VertexID, cur, delta Prop) Prop {
	if delta < cur {
		return delta
	}
	return cur
}

// MergeDelta implements DeltaMerger (exact: min is associative).
func (cc) MergeDelta(a, b Prop) Prop {
	if b < a {
		return b
	}
	return a
}

func (cc) Propagate(prop Prop, _ uint32, _ int64) (Prop, bool) {
	return prop, true
}

// pr is PageRank in BSP mode. The paper runs PR bulk-synchronously because
// PR-delta's performance is too sensitive to traversal order (Section V).
type pr struct {
	damping float64
	epochs  int
}

// NewPageRank returns bulk-synchronous PageRank with the given damping
// factor running a fixed number of power iterations (the standard
// accelerator-benchmark configuration).
func NewPageRank(damping float64, epochs int) BSPProgram {
	if damping <= 0 || damping >= 1 {
		damping = 0.85
	}
	if epochs <= 0 {
		epochs = 10
	}
	return pr{damping: damping, epochs: epochs}
}

func (pr) Name() string { return "pr" }
func (pr) Mode() Mode   { return BSP }

func (p pr) InitProp(v graph.VertexID, g *graph.CSR) Prop {
	return FromFloat(1.0 / float64(g.NumVertices()))
}

func (p pr) InitActive(g *graph.CSR) []graph.VertexID { return allVertices(g) }

func (pr) AccumInit() Prop { return FromFloat(0) }

func (pr) Reduce(_ graph.VertexID, cur, delta Prop) Prop {
	return FromFloat(cur.Float() + delta.Float())
}

func (p pr) Propagate(prop Prop, _ uint32, outDeg int64) (Prop, bool) {
	if outDeg == 0 {
		return 0, false
	}
	return FromFloat(prop.Float() / float64(outDeg)), true
}

func (p pr) Apply(v graph.VertexID, cur, accum Prop, g *graph.CSR) (Prop, bool) {
	n := float64(g.NumVertices())
	next := (1-p.damping)/n + p.damping*accum.Float()
	return FromFloat(next), true
}

// EpochActive keeps every vertex active each epoch: PageRank is
// topology-driven, so dangling-in-degree vertices must still propagate.
func (p pr) EpochActive(epoch int, g *graph.CSR) []graph.VertexID {
	if epoch >= p.epochs {
		return nil
	}
	return allVertices(g)
}

func (p pr) MaxEpochs() int { return p.epochs }

// Betweenness centrality (BC) runs as two level-synchronous BSP phases:
// a forward pass computing BFS depth and shortest-path counts (σ), and a
// backward pass over the transpose graph accumulating dependencies (δ).
// The paper notes BC's backward pass doubles the edges that must be stored;
// we run it on the explicit transpose.

const bcUnreached = 0xFFFF

// bcPack packs (depth, sigma) into a Prop: depth in the high 16 bits.
func bcPack(depth uint16, sigma uint64) Prop {
	return Prop(uint64(depth)<<48 | (sigma & ((1 << 48) - 1)))
}

func bcDepth(p Prop) uint16 { return uint16(p >> 48) }
func bcSigma(p Prop) uint64 { return uint64(p) & ((1 << 48) - 1) }

// bcForward is the σ-counting forward BSP phase.
type bcForward struct{ root graph.VertexID }

// NewBCForward returns the forward phase of Brandes-style betweenness
// centrality: a level-synchronous BFS that counts shortest paths.
func NewBCForward(root graph.VertexID) BSPProgram { return bcForward{root} }

func (bcForward) Name() string { return "bc-forward" }
func (bcForward) Mode() Mode   { return BSP }

func (b bcForward) InitProp(v graph.VertexID, g *graph.CSR) Prop {
	if v == b.root {
		return bcPack(0, 1)
	}
	return bcPack(bcUnreached, 0)
}

func (b bcForward) InitActive(g *graph.CSR) []graph.VertexID {
	return []graph.VertexID{b.root}
}

func (bcForward) AccumInit() Prop { return bcPack(bcUnreached, 0) }

func (bcForward) Reduce(_ graph.VertexID, cur, delta Prop) Prop {
	// Within one level-synchronous epoch every message carries the same
	// depth; accumulate σ. Keep the smaller depth if they ever differ.
	if bcDepth(cur) == bcUnreached {
		return delta
	}
	if bcDepth(delta) == bcDepth(cur) {
		return bcPack(bcDepth(cur), bcSigma(cur)+bcSigma(delta))
	}
	if bcDepth(delta) < bcDepth(cur) {
		return delta
	}
	return cur
}

func (bcForward) Propagate(prop Prop, _ uint32, _ int64) (Prop, bool) {
	return bcPack(bcDepth(prop)+1, bcSigma(prop)), true
}

func (bcForward) Apply(v graph.VertexID, cur, accum Prop, g *graph.CSR) (Prop, bool) {
	if bcDepth(cur) != bcUnreached {
		return cur, false // already settled at an earlier level
	}
	if bcDepth(accum) == bcUnreached {
		return cur, false
	}
	return accum, true
}

func (bcForward) MaxEpochs() int { return 0 }

// bcBackward accumulates dependencies level by level on the transpose
// graph. Properties hold δ(v) as float64 bits; depth and σ come from the
// forward pass (conceptually the same vertex record, held here as captured
// state so each phase's Prop stays 8 bytes).
type bcBackward struct {
	depth    []uint16
	sigma    []uint64
	maxDepth int
	byLevel  [][]graph.VertexID
}

// NewBCBackward builds the backward phase from forward-phase results.
// forwardProps must be the property vector produced by NewBCForward.
func NewBCBackward(forwardProps []Prop) ScheduledProgram {
	n := len(forwardProps)
	b := &bcBackward{
		depth: make([]uint16, n),
		sigma: make([]uint64, n),
	}
	maxDepth := 0
	for v, p := range forwardProps {
		b.depth[v] = bcDepth(p)
		b.sigma[v] = bcSigma(p)
		if b.depth[v] != bcUnreached && int(b.depth[v]) > maxDepth {
			maxDepth = int(b.depth[v])
		}
	}
	b.maxDepth = maxDepth
	b.byLevel = make([][]graph.VertexID, maxDepth+1)
	for v := 0; v < n; v++ {
		if d := b.depth[v]; d != bcUnreached {
			b.byLevel[d] = append(b.byLevel[d], graph.VertexID(v))
		}
	}
	return b
}

func (*bcBackward) Name() string { return "bc-backward" }
func (*bcBackward) Mode() Mode   { return BSP }

func (*bcBackward) InitProp(v graph.VertexID, g *graph.CSR) Prop { return FromFloat(0) }

// InitActive is empty: the level schedule drives activation.
func (*bcBackward) InitActive(g *graph.CSR) []graph.VertexID { return nil }

func (*bcBackward) AccumInit() Prop { return FromFloat(0) }

// bcMsgPack packs (senderDepth, contribution float32) into a Prop.
func bcMsgPack(depth uint16, contrib float32) Prop {
	return Prop(uint64(depth)<<32 | uint64(math.Float32bits(contrib)))
}

func bcMsgDepth(p Prop) uint16    { return uint16(p >> 32) }
func bcMsgContrib(p Prop) float32 { return math.Float32frombits(uint32(p)) }

// Reduce accepts contributions only from true BFS successors (vertices one
// level deeper); transpose edges from other levels are not DAG edges.
func (b *bcBackward) Reduce(v graph.VertexID, cur, delta Prop) Prop {
	if b.depth[v] == bcUnreached || bcMsgDepth(delta) != b.depth[v]+1 {
		return cur
	}
	return FromFloat(cur.Float() + float64(bcMsgContrib(delta)))
}

// Propagate sends (1+δ(w))/σ(w) tagged with w's depth. The engine calls it
// per transpose out-edge of an active vertex w; the δ in prop is w's
// current dependency.
func (b *bcBackward) Propagate(prop Prop, _ uint32, _ int64) (Prop, bool) {
	// The property vector is indexed per vertex by the engine, but
	// Propagate does not receive the vertex ID; encode depth and σ into
	// the property at activation time instead. See propForLevel.
	return prop, true
}

// Apply folds the accumulated Σ contributions into δ(v) = σ(v)·Σ.
func (b *bcBackward) Apply(v graph.VertexID, cur, accum Prop, g *graph.CSR) (Prop, bool) {
	if b.depth[v] == bcUnreached {
		return cur, false
	}
	return FromFloat(cur.Float() + float64(b.sigma[v])*accum.Float()), false
}

// EpochActive walks levels maxDepth, maxDepth-1, ..., 1.
func (b *bcBackward) EpochActive(epoch int, g *graph.CSR) []graph.VertexID {
	level := b.maxDepth - epoch
	if level < 1 {
		return nil
	}
	return b.byLevel[level]
}

func (b *bcBackward) MaxEpochs() int { return b.maxDepth }

// PreparePropagation is called by engines before propagating from an
// active vertex in a ScheduledProgram whose messages depend on the sender.
// For bcBackward it rewrites the outgoing property into the message form
// (senderDepth, (1+δ)/σ). Engines that see a PropPreparer must call it.
type PropPreparer interface {
	PrepareProp(v graph.VertexID, prop Prop) Prop
}

func (b *bcBackward) PrepareProp(v graph.VertexID, prop Prop) Prop {
	if b.sigma[v] == 0 {
		return bcMsgPack(b.depth[v], 0)
	}
	contrib := float32((1 + prop.Float()) / float64(b.sigma[v]))
	return bcMsgPack(b.depth[v], contrib)
}

// RunBC executes both betweenness-centrality phases on the given runner:
// the forward phase on g, the backward phase on the transpose gT (built by
// the caller so it can be reused). It returns per-vertex dependency scores
// and the combined statistics of both phases.
func RunBC(r Runner, g, gT *graph.CSR, root graph.VertexID) ([]float64, RunStats, error) {
	fwdProps, fwdStats, err := r.RunProgram(NewBCForward(root), g)
	if err != nil {
		// Context-aware runners return partial stats alongside the error;
		// keep them so callers can salvage the work done before the stop.
		return nil, fwdStats, err
	}
	back := NewBCBackward(fwdProps)
	bwdProps, bwdStats, err := r.RunProgram(back, gT)
	if err != nil {
		return nil, RunStats{
			SimSeconds:        fwdStats.SimSeconds + bwdStats.SimSeconds,
			EdgesTraversed:    fwdStats.EdgesTraversed + bwdStats.EdgesTraversed,
			MessagesSent:      fwdStats.MessagesSent + bwdStats.MessagesSent,
			MessagesCoalesced: fwdStats.MessagesCoalesced + bwdStats.MessagesCoalesced,
			Epochs:            fwdStats.Epochs + bwdStats.Epochs,
		}, err
	}
	scores := make([]float64, len(bwdProps))
	for v, p := range bwdProps {
		if graph.VertexID(v) != root {
			scores[v] = p.Float()
		}
	}
	combined := RunStats{
		SimSeconds:        fwdStats.SimSeconds + bwdStats.SimSeconds,
		EdgesTraversed:    fwdStats.EdgesTraversed + bwdStats.EdgesTraversed,
		MessagesSent:      fwdStats.MessagesSent + bwdStats.MessagesSent,
		MessagesCoalesced: fwdStats.MessagesCoalesced + bwdStats.MessagesCoalesced,
		Epochs:            fwdStats.Epochs + bwdStats.Epochs,
	}
	return scores, combined, nil
}
