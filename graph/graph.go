// Package graph provides the graph data structures, synthetic generators
// and spatial partitioners used by the NOVA reproduction.
//
// Graphs are stored in compressed sparse row (CSR) form, the layout the
// accelerator's message generation unit streams from edge memory: for each
// vertex v, its out-edges occupy the contiguous range
// [RowPtr[v], RowPtr[v+1]) of Dst/Weight. This is also the layout
// Algorithm 1 of the paper indexes with row_ptr.
package graph

import (
	"fmt"
	"sort"
	"sync"
)

// VertexID identifies a vertex. Graph sizes in this reproduction are scaled
// to fit a workstation, so 32 bits suffice.
type VertexID uint32

// Edge is a directed, weighted edge.
type Edge struct {
	Src, Dst VertexID
	Weight   uint32
}

// CSR is an immutable directed graph in compressed sparse row form. It
// owns its derived views: Transpose and Symmetrize build theirs on the
// first call and share it with every later caller, concurrent ones
// included, so a graph costs at most one copy of each however many runs
// read it.
type CSR struct {
	// RowPtr has length NumVertices+1; vertex v's out-edges are
	// Dst[RowPtr[v]:RowPtr[v+1]].
	RowPtr []int64
	// Dst holds edge destinations, grouped by source.
	Dst []VertexID
	// Weight holds per-edge weights, parallel to Dst. Unweighted graphs
	// use weight 1 everywhere so SSSP degenerates to BFS distances.
	Weight []uint32
	// Name labels the graph in reports.
	Name string

	trOnce, symOnce sync.Once
	tr, sym         *CSR
}

// NumVertices returns |V|.
func (g *CSR) NumVertices() int { return len(g.RowPtr) - 1 }

// NumEdges returns |E| (directed edge count).
func (g *CSR) NumEdges() int64 { return g.RowPtr[len(g.RowPtr)-1] }

// OutDegree returns the out-degree of v.
func (g *CSR) OutDegree(v VertexID) int64 { return g.RowPtr[v+1] - g.RowPtr[v] }

// Neighbors returns the destination slice for v's out-edges. The slice
// aliases the graph; callers must not modify it.
func (g *CSR) Neighbors(v VertexID) []VertexID {
	return g.Dst[g.RowPtr[v]:g.RowPtr[v+1]]
}

// EdgeWeights returns the weight slice for v's out-edges, aliasing the graph.
func (g *CSR) EdgeWeights(v VertexID) []uint32 {
	return g.Weight[g.RowPtr[v]:g.RowPtr[v+1]]
}

// AvgDegree returns |E|/|V|.
func (g *CSR) AvgDegree() float64 {
	if g.NumVertices() == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(g.NumVertices())
}

// MaxDegree returns the largest out-degree.
func (g *CSR) MaxDegree() int64 {
	var m int64
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.OutDegree(VertexID(v)); d > m {
			m = d
		}
	}
	return m
}

// FootprintBytes estimates the memory footprint using the paper's sizing:
// 16 B per vertex record and 8 B per edge.
func (g *CSR) FootprintBytes() int64 {
	return int64(g.NumVertices())*16 + g.NumEdges()*8
}

func (g *CSR) String() string {
	return fmt.Sprintf("%s{V=%d E=%d deg=%.1f}", g.Name, g.NumVertices(), g.NumEdges(), g.AvgDegree())
}

// FromEdges builds a CSR from an edge list. Edges may arrive in any order;
// they are bucketed by source. Duplicate edges are kept (multigraphs are
// legal inputs for the simulated accelerators). It panics if an endpoint
// is out of range — that is a generator bug, not an input condition.
func FromEdges(name string, numVertices int, edges []Edge) *CSR {
	rowPtr := make([]int64, numVertices+1)
	for _, e := range edges {
		if int(e.Src) >= numVertices || int(e.Dst) >= numVertices {
			panic(fmt.Sprintf("graph: edge %d->%d out of range %d", e.Src, e.Dst, numVertices))
		}
		rowPtr[e.Src+1]++
	}
	for i := 1; i <= numVertices; i++ {
		rowPtr[i] += rowPtr[i-1]
	}
	dst := make([]VertexID, len(edges))
	wgt := make([]uint32, len(edges))
	cursor := make([]int64, numVertices)
	for _, e := range edges {
		p := rowPtr[e.Src] + cursor[e.Src]
		cursor[e.Src]++
		dst[p] = e.Dst
		w := e.Weight
		if w == 0 {
			w = 1
		}
		wgt[p] = w
	}
	return &CSR{RowPtr: rowPtr, Dst: dst, Weight: wgt, Name: name}
}

// Edges materializes the edge list (mostly for tests and round-trips).
func (g *CSR) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		lo, hi := g.RowPtr[v], g.RowPtr[v+1]
		for i := lo; i < hi; i++ {
			out = append(out, Edge{Src: VertexID(v), Dst: g.Dst[i], Weight: g.Weight[i]})
		}
	}
	return out
}

// Transpose returns the graph with every edge reversed (used by the
// backward pass of betweenness centrality and by pull-direction edgeMap).
// The view is built once and shared; callers must not modify it.
func (g *CSR) Transpose() *CSR {
	g.trOnce.Do(func() { g.tr = g.transpose() })
	return g.tr
}

func (g *CSR) transpose() *CSR {
	n := g.NumVertices()
	rowPtr := make([]int64, n+1)
	for _, d := range g.Dst {
		rowPtr[d+1]++
	}
	for i := 1; i <= n; i++ {
		rowPtr[i] += rowPtr[i-1]
	}
	dst := make([]VertexID, len(g.Dst))
	wgt := make([]uint32, len(g.Weight))
	cursor := make([]int64, n)
	for v := 0; v < n; v++ {
		for i := g.RowPtr[v]; i < g.RowPtr[v+1]; i++ {
			d := g.Dst[i]
			p := rowPtr[d] + cursor[d]
			cursor[d]++
			dst[p] = VertexID(v)
			wgt[p] = g.Weight[i]
		}
	}
	return &CSR{RowPtr: rowPtr, Dst: dst, Weight: wgt, Name: g.Name + "-T"}
}

// Symmetrize returns the graph with each edge mirrored and (src, dst)
// duplicates removed — the form connected-components runs on. When the
// input holds parallel edges with different weights, the smallest weight
// wins, deterministically. The view is built once and shared; callers
// must not modify it.
func (g *CSR) Symmetrize() *CSR {
	g.symOnce.Do(func() { g.sym = g.symmetrize() })
	return g.sym
}

func (g *CSR) symmetrize() *CSR {
	edges := make([]Edge, 0, 2*g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		for i := g.RowPtr[v]; i < g.RowPtr[v+1]; i++ {
			u, d, w := VertexID(v), g.Dst[i], g.Weight[i]
			edges = append(edges, Edge{Src: u, Dst: d, Weight: w}, Edge{Src: d, Dst: u, Weight: w})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Src != edges[j].Src {
			return edges[i].Src < edges[j].Src
		}
		if edges[i].Dst != edges[j].Dst {
			return edges[i].Dst < edges[j].Dst
		}
		return edges[i].Weight < edges[j].Weight
	})
	out := edges[:0]
	for _, e := range edges {
		if n := len(out); n > 0 && out[n-1].Src == e.Src && out[n-1].Dst == e.Dst {
			continue
		}
		out = append(out, e)
	}
	return FromEdges(g.Name+"-sym", g.NumVertices(), out)
}

// Relabel returns a new graph where old vertex v becomes perm[v]. perm must
// be a permutation of 0..n-1; Relabel panics otherwise, since a bad
// permutation silently corrupts every downstream experiment.
func (g *CSR) Relabel(perm []VertexID) *CSR {
	n := g.NumVertices()
	if len(perm) != n {
		panic("graph: Relabel permutation length mismatch")
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if int(p) >= n || seen[p] {
			panic("graph: Relabel argument is not a permutation")
		}
		seen[p] = true
	}
	edges := make([]Edge, 0, g.NumEdges())
	for v := 0; v < n; v++ {
		for i := g.RowPtr[v]; i < g.RowPtr[v+1]; i++ {
			edges = append(edges, Edge{Src: perm[v], Dst: perm[g.Dst[i]], Weight: g.Weight[i]})
		}
	}
	return FromEdges(g.Name, n, edges)
}

// LargestOutDegreeVertex returns the vertex with the most out-edges; used
// as the default BFS/SSSP/BC root so traversals reach most of the graph.
func (g *CSR) LargestOutDegreeVertex() VertexID {
	var best VertexID
	var bestDeg int64 = -1
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.OutDegree(VertexID(v)); d > bestDeg {
			bestDeg = d
			best = VertexID(v)
		}
	}
	return best
}
