// Package ref provides independent sequential oracle implementations of
// the paper's five workloads. They are used to (a) verify that every
// simulated engine computes correct results and (b) supply the
// sequential-edge counts that anchor Beamer's work-efficiency metric
// (Section II-A of the paper).
package ref

import (
	"container/heap"

	"nova/graph"
)

// Unreached marks vertices a traversal never visited.
const Unreached = int64(-1)

// BFS returns hop distances from root (Unreached where unreachable).
func BFS(g *graph.CSR, root graph.VertexID) []int64 {
	n := g.NumVertices()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = Unreached
	}
	dist[root] = 0
	queue := []graph.VertexID{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, d := range g.Neighbors(v) {
			if dist[d] == Unreached {
				dist[d] = dist[v] + 1
				queue = append(queue, d)
			}
		}
	}
	return dist
}

type pqItem struct {
	v    graph.VertexID
	dist int64
}

type pq []pqItem

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() any          { old := *q; x := old[len(old)-1]; *q = old[:len(old)-1]; return x }

// SSSP returns weighted shortest-path distances from root via Dijkstra.
func SSSP(g *graph.CSR, root graph.VertexID) []int64 {
	n := g.NumVertices()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = Unreached
	}
	dist[root] = 0
	q := pq{{root, 0}}
	for q.Len() > 0 {
		it := heap.Pop(&q).(pqItem)
		if it.dist > dist[it.v] {
			continue
		}
		lo, hi := g.RowPtr[it.v], g.RowPtr[it.v+1]
		for i := lo; i < hi; i++ {
			d := g.Dst[i]
			nd := it.dist + int64(g.Weight[i])
			if dist[d] == Unreached || nd < dist[d] {
				dist[d] = nd
				heap.Push(&q, pqItem{d, nd})
			}
		}
	}
	return dist
}

// CC returns per-vertex labels of the weakly connected components, where
// each label is the smallest vertex ID in the component: the fixed point
// of min-label propagation on the symmetrized graph, which the engines run
// cc on, so engine output can be compared directly. Every edge joins its
// endpoints whichever way it points, so the labels do not depend on
// whether g is symmetric: an engine that ran on a directed graph where it
// should have run on its symmetrized view is caught.
func CC(g *graph.CSR) []int64 {
	n := g.NumVertices()
	label := make([]int64, n)
	for i := range label {
		label[i] = int64(i)
	}
	// Union-find whose roots are always their set's smallest ID: a union
	// hangs the larger root under the smaller, and path halving only
	// shortens paths to a root.
	find := func(v int64) int64 {
		for label[v] != v {
			label[v] = label[label[v]]
			v = label[v]
		}
		return v
	}
	for u := 0; u < n; u++ {
		for _, d := range g.Neighbors(graph.VertexID(u)) {
			a, b := find(int64(u)), find(int64(d))
			if a > b {
				a, b = b, a
			}
			label[b] = a
		}
	}
	for v := range label {
		label[v] = find(int64(v))
	}
	return label
}

// PageRank mirrors the BSP engine semantics exactly: each iteration, every
// vertex with out-degree > 0 contributes rank/outdeg along its out-edges;
// vertices that receive at least one contribution update to
// (1-damping)/N + damping·Σ, and vertices receiving none keep their rank.
// (Dangling-vertex mass is dropped, as in the simulated engines.)
func PageRank(g *graph.CSR, damping float64, iters int) []float64 {
	n := g.NumVertices()
	rank := make([]float64, n)
	for i := range rank {
		rank[i] = 1.0 / float64(n)
	}
	contrib := make([]float64, n)
	got := make([]bool, n)
	for it := 0; it < iters; it++ {
		for i := range contrib {
			contrib[i] = 0
			got[i] = false
		}
		for v := 0; v < n; v++ {
			deg := g.OutDegree(graph.VertexID(v))
			if deg == 0 {
				continue
			}
			share := rank[v] / float64(deg)
			for _, d := range g.Neighbors(graph.VertexID(v)) {
				contrib[d] += share
				got[d] = true
			}
		}
		for v := 0; v < n; v++ {
			if got[v] {
				rank[v] = (1-damping)/float64(n) + damping*contrib[v]
			}
		}
	}
	return rank
}

// BC returns single-source betweenness dependencies δ(v) computed with
// Brandes' algorithm (unweighted). The root's own score is 0.
func BC(g *graph.CSR, root graph.VertexID) []float64 {
	n := g.NumVertices()
	dist := make([]int64, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)
	for i := range dist {
		dist[i] = Unreached
	}
	dist[root] = 0
	sigma[root] = 1
	order := []graph.VertexID{root}
	for qi := 0; qi < len(order); qi++ {
		v := order[qi]
		for _, d := range g.Neighbors(v) {
			if dist[d] == Unreached {
				dist[d] = dist[v] + 1
				order = append(order, d)
			}
			if dist[d] == dist[v]+1 {
				sigma[d] += sigma[v]
			}
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		w := order[i]
		for _, d := range g.Neighbors(w) {
			if dist[d] == dist[w]+1 && sigma[d] > 0 {
				delta[w] += sigma[w] / sigma[d] * (1 + delta[d])
			}
		}
	}
	delta[root] = 0
	return delta
}

// SequentialEdges returns the work a sequential implementation performs on
// workload name — the numerator of Beamer's work-efficiency metric.
func SequentialEdges(g *graph.CSR, root graph.VertexID, name string, prIters int) int64 {
	switch name {
	case "bfs", "sssp":
		dist := BFS(g, root)
		var edges int64
		for v := 0; v < g.NumVertices(); v++ {
			if dist[v] != Unreached {
				edges += g.OutDegree(graph.VertexID(v))
			}
		}
		return edges
	case "cc":
		return g.NumEdges()
	case "pr":
		return g.NumEdges() * int64(prIters)
	case "prdelta":
		// Delta PageRank's work depends on the convergence trajectory; a
		// sequential implementation must stream every edge at least once,
		// so one full pass anchors the efficiency metric conservatively.
		return g.NumEdges()
	case "bc", "bc-forward", "bc-backward":
		dist := BFS(g, root)
		var edges int64
		for v := 0; v < g.NumVertices(); v++ {
			if dist[v] != Unreached {
				edges += g.OutDegree(graph.VertexID(v))
			}
		}
		if name == "bc" {
			return 2 * edges
		}
		return edges
	default:
		return g.NumEdges()
	}
}
