package graph

import (
	"container/heap"
	"sort"
)

// Partition assigns every vertex to exactly one processing element (or
// slice). Section IV of the paper: each vertex and its edge list live on a
// single PE, so no atomics and no remote memory traffic are ever needed.
type Partition struct {
	// Owner[v] is the part owning vertex v.
	Owner []int
	// Parts is the number of parts.
	Parts int
	// Method names the strategy for reports.
	Method string
}

// NumVertices returns the number of assigned vertices.
func (p *Partition) NumVertices() int { return len(p.Owner) }

// Counts returns the number of vertices per part.
func (p *Partition) Counts() []int {
	c := make([]int, p.Parts)
	for _, o := range p.Owner {
		c[o]++
	}
	return c
}

// EdgeCounts returns the number of out-edges owned by each part.
func (p *Partition) EdgeCounts(g *CSR) []int64 {
	c := make([]int64, p.Parts)
	for v := 0; v < g.NumVertices(); v++ {
		c[p.Owner[v]] += g.OutDegree(VertexID(v))
	}
	return c
}

// CutFraction returns the fraction of edges whose endpoints live on
// different parts — the traffic that must cross the interconnect.
func (p *Partition) CutFraction(g *CSR) float64 {
	if g.NumEdges() == 0 {
		return 0
	}
	var cut int64
	for v := 0; v < g.NumVertices(); v++ {
		ov := p.Owner[v]
		for _, d := range g.Neighbors(VertexID(v)) {
			if p.Owner[d] != ov {
				cut++
			}
		}
	}
	return float64(cut) / float64(g.NumEdges())
}

// Imbalance returns max(edges per part) / mean(edges per part); 1.0 is a
// perfectly load-balanced partition.
func (p *Partition) Imbalance(g *CSR) float64 {
	counts := p.EdgeCounts(g)
	var sum, max int64
	for _, c := range counts {
		sum += c
		if c > max {
			max = c
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(p.Parts)
	return float64(max) / mean
}

// PartitionInterleave assigns vertex v to part v mod parts — the paper's
// zero-preprocessing default ("we interleave the vertices based on their
// vertex ids between PEs").
func PartitionInterleave(numVertices, parts int) *Partition {
	owner := make([]int, numVertices)
	for v := range owner {
		owner[v] = v % parts
	}
	return &Partition{Owner: owner, Parts: parts, Method: "interleave"}
}

// PartitionRange assigns contiguous ID ranges to parts — Gemini-style
// chunking, which is what PolyGraph's low-cost temporal slicing uses.
func PartitionRange(numVertices, parts int) *Partition {
	owner := make([]int, numVertices)
	for v := range owner {
		owner[v] = v * parts / max(numVertices, 1)
		if owner[v] >= parts {
			owner[v] = parts - 1
		}
	}
	return &Partition{Owner: owner, Parts: parts, Method: "range"}
}

// PartitionRandom assigns vertices uniformly at random (seeded) — the
// mapping used for the headline results ("We used random partitioning to
// assign vertices to different PEs").
func PartitionRandom(numVertices, parts int, seed int64) *Partition {
	var rng draws
	rng.seed(seed)
	part := newUniformN(parts)
	owner := make([]int, numVertices)
	for v := range owner {
		owner[v] = rng.uniform(&part)
	}
	return &Partition{Owner: owner, Parts: parts, Method: "random"}
}

type partLoad struct {
	part int
	load int64
}

type partHeap []partLoad

func (h partHeap) Len() int { return len(h) }
func (h partHeap) Less(i, j int) bool {
	if h[i].load != h[j].load {
		return h[i].load < h[j].load
	}
	return h[i].part < h[j].part
}
func (h partHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *partHeap) Push(x any)   { *h = append(*h, x.(partLoad)) }
func (h *partHeap) Pop() any     { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }

// PartitionLoadBalanced sorts vertices by descending out-degree and greedily
// assigns each to the part with the fewest edges so far — the paper's
// load-balance-optimized placement (Section IV-B).
func PartitionLoadBalanced(g *CSR, parts int) *Partition {
	n := g.NumVertices()
	order := make([]VertexID, n)
	for v := range order {
		order[v] = VertexID(v)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := g.OutDegree(order[i]), g.OutDegree(order[j])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	h := make(partHeap, parts)
	for i := range h {
		h[i] = partLoad{part: i}
	}
	heap.Init(&h)
	owner := make([]int, n)
	for _, v := range order {
		p := heap.Pop(&h).(partLoad)
		owner[v] = p.part
		p.load += g.OutDegree(v) + 1 // +1 so zero-degree vertices spread too
		heap.Push(&h, p)
	}
	return &Partition{Owner: owner, Parts: parts, Method: "load-balanced"}
}

// PartitionLocality clusters vertices with a lightweight BFS-based community
// blocking (a RABBIT-like just-in-time reordering) and keeps each cluster on
// one part. Clusters are capped near |V|/parts and packed onto parts to
// balance vertex counts. This is the locality-optimized placement of
// Fig. 9b: fewer cut edges, possibly worse load balance.
func PartitionLocality(g *CSR, parts int) *Partition {
	n := g.NumVertices()
	if parts <= 1 {
		return &Partition{Owner: make([]int, n), Parts: max(parts, 1), Method: "locality"}
	}
	capPerCluster := n/parts + 1
	capEdges := g.NumEdges()/int64(parts) + 1
	cluster := make([]int, n)
	for i := range cluster {
		cluster[i] = -1
	}
	var clusters [][]VertexID
	queue := make([]VertexID, 0, capPerCluster)
	for start := 0; start < n; start++ {
		if cluster[start] >= 0 {
			continue
		}
		id := len(clusters)
		members := []VertexID{VertexID(start)}
		edges := g.OutDegree(VertexID(start))
		cluster[start] = id
		queue = append(queue[:0], VertexID(start))
		for len(queue) > 0 && len(members) < capPerCluster && edges < capEdges {
			v := queue[0]
			queue = queue[1:]
			for _, d := range g.Neighbors(v) {
				if cluster[d] < 0 && len(members) < capPerCluster && edges < capEdges {
					cluster[d] = id
					members = append(members, d)
					edges += g.OutDegree(d)
					queue = append(queue, d)
				}
			}
		}
		clusters = append(clusters, members)
	}
	// Pack clusters (heaviest first) onto the least-loaded part, where
	// load is measured in edges: without edge balancing, the hub
	// community of a power-law graph lands on one PE and serializes the
	// whole machine.
	weight := make([]int64, len(clusters))
	for ci, members := range clusters {
		for _, v := range members {
			weight[ci] += g.OutDegree(v)
		}
		weight[ci] += int64(len(members)) // vertices count too
	}
	order := make([]int, len(clusters))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if weight[order[i]] != weight[order[j]] {
			return weight[order[i]] > weight[order[j]]
		}
		return order[i] < order[j]
	})
	h := make(partHeap, parts)
	for i := range h {
		h[i] = partLoad{part: i}
	}
	heap.Init(&h)
	owner := make([]int, n)
	for _, ci := range order {
		p := heap.Pop(&h).(partLoad)
		for _, v := range clusters[ci] {
			owner[v] = p.part
		}
		p.load += weight[ci]
		heap.Push(&h, p)
	}
	return &Partition{Owner: owner, Parts: parts, Method: "locality"}
}

// PartitionLocalityHierarchical is the locality mapping for a two-level
// machine: communities are kept together at the group (GPN) level — so
// most messages avoid the inter-group crossbar — while vertices interleave
// across the processing elements inside each group to preserve
// parallelism. groups×perGroup is the total part count.
func PartitionLocalityHierarchical(g *CSR, groups, perGroup int) *Partition {
	if groups <= 1 {
		p := PartitionInterleave(g.NumVertices(), max(perGroup, 1))
		p.Method = "locality"
		return p
	}
	byGroup := PartitionLocality(g, groups)
	owner := make([]int, g.NumVertices())
	next := make([]int, groups)
	for v, grp := range byGroup.Owner {
		owner[v] = grp*perGroup + next[grp]
		next[grp] = (next[grp] + 1) % perGroup
	}
	return &Partition{Owner: owner, Parts: groups * perGroup, Method: "locality"}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
