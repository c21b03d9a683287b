package graph

import (
	"fmt"
	"math"
)

// Generators for the synthetic stand-ins of the paper's inputs (Table III).
// All generators are deterministic for a given seed.

// GenUniform generates an Erdős–Rényi-style uniform random digraph with the
// given average out-degree — the stand-in for the paper's Urand input.
// Weights are uniform in [1, maxWeight].
func GenUniform(name string, numVertices int, avgDegree float64, maxWeight uint32, seed int64) *CSR {
	checkDegree("GenUniform", avgDegree)
	var rng draws
	rng.seed(seed)
	vertex, w := newUniformN(numVertices), newWeights(maxWeight)
	m := int(float64(numVertices) * avgDegree)
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, Edge{
			Src:    VertexID(rng.uniform(&vertex)),
			Dst:    VertexID(rng.uniform(&vertex)),
			Weight: weight(&rng, &w),
		})
	}
	return FromEdges(name, numVertices, edges)
}

// RMATParams are the Kronecker recursion probabilities. The GAP/Graph500
// defaults (a=0.57, b=c=0.19) produce the heavy-tailed degree distribution
// of social graphs like Twitter and Friendster.
type RMATParams struct {
	A, B, C float64
}

// DefaultRMAT is the Graph500 parameterization.
var DefaultRMAT = RMATParams{A: 0.57, B: 0.19, C: 0.19}

// GenRMAT generates a Kronecker (R-MAT) graph with 2^scale vertices and
// approximately avgDegree out-edges per vertex. Vertex IDs are randomly
// permuted so that the natural ordering carries no community structure —
// matching how the paper's inputs are distributed "randomly" across PEs.
// It is GenRMATN at a power-of-two size, where no draw is rejected.
func GenRMAT(name string, scale int, avgDegree float64, p RMATParams, maxWeight uint32, seed int64) *CSR {
	if scale < 1 || scale > 30 {
		panic(fmt.Sprintf("graph: GenRMAT scale %d out of range", scale))
	}
	checkRMAT("GenRMAT", p, avgDegree)
	return GenRMATN(name, 1<<scale, avgDegree, p, maxWeight, seed)
}

// rmatSampler is the Kronecker recursion every R-MAT generator shares: one
// draw per bit of the vertex-ID space, each picking a quadrant of the
// adjacency matrix with probabilities a, b, c and 1−a−b−c. The draw is the
// 63-bit integer behind one rand.Float64, and the thresholds a, a+b and
// a+b+c are in the same integer form (threshold), so the quadrant is the
// number of thresholds at or below the draw, exactly as it would be for
// the float. It is counted without a branch, since no predictor can guess
// a branch on a uniform draw. While the thresholds are in order, which
// checkRMAT guarantees, the count is the index of the interval [0,a),
// [a,a+b), [a+b,a+b+c) or [a+b+c,1) that holds the draw.
type rmatSampler struct {
	scale      int
	a, ab, abc uint64
}

func newRMATSampler(p RMATParams, scale int) rmatSampler {
	return rmatSampler{
		scale: scale,
		a:     threshold(p.A),
		ab:    threshold(p.A + p.B),
		abc:   threshold(p.A + p.B + p.C),
	}
}

// next draws one cell of the 2^scale × 2^scale adjacency matrix. Quadrant
// q sets dst's bit from its low bit and src's from its high bit: 0 is
// top-left, 1 top-right, 2 bottom-left and 3 bottom-right.
//
// Each bit takes one rng.unit(), written out here with the stream
// position in a local: a call per draw, or a store and reload of rng.pos
// per draw, would cost more than the draw itself.
func (s rmatSampler) next(rng *draws) (src, dst int) {
	pos := rng.pos
	m := 1 // the bit being drawn
	for bit := 0; bit < s.scale; bit++ {
		if pos == drawLag {
			rng.refill()
			pos = 0
		}
		y := rng.vec[pos] & mask63
		pos++
		if y >= unitEnd { // rand.Float64 would round it to 1, and resample
			rng.pos = pos
			y = rng.unit()
			pos = rng.pos
		}
		q := b2i(y >= s.a) + b2i(y >= s.ab) + b2i(y >= s.abc)
		dst |= m & -(q & 1)
		src |= m & -(q >> 1)
		m <<= 1
	}
	rng.pos = pos
	return src, dst
}

// b2i compiles to a flag-setting instruction, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// checkRMAT panics on parameters that describe no R-MAT distribution —
// probabilities that are NaN, infinite or negative, or that sum past 1
// (the fourth quadrant takes what they leave) — and on a bad average
// degree. Non-negative b and c also keep rmatSampler's thresholds in order.
func checkRMAT(fn string, p RMATParams, avgDegree float64) {
	// Written so that a NaN fails every comparison.
	if !(p.A >= 0 && p.B >= 0 && p.C >= 0 && p.A+p.B+p.C <= 1) {
		panic(fmt.Sprintf("graph: %s R-MAT parameters %+v out of range", fn, p))
	}
	checkDegree(fn, avgDegree)
}

// checkDegree panics on an average degree that is NaN, infinite or
// negative, from which no edge count follows. A finite degree whose edge
// count overflows an int is not caught here; cmd/graphgen bounds the edge
// count of user input.
func checkDegree(fn string, avgDegree float64) {
	if !(avgDegree >= 0) || math.IsInf(avgDegree, 1) {
		panic(fmt.Sprintf("graph: %s average degree %v out of range", fn, avgDegree))
	}
}

// GenGrid generates a rows×cols 2D lattice with bidirectional edges between
// orthogonal neighbours, dropping each edge pair with probability dropProb
// to break the regularity — the stand-in for road networks (high diameter,
// average degree ≈ 4·(1-dropProb), like the paper's RoadUSA at ~2.4 with
// dropProb ≈ 0.39). It panics on a side that is not positive and on a
// dropProb that is NaN or outside [0, 1].
func GenGrid(name string, rows, cols int, dropProb float64, maxWeight uint32, seed int64) *CSR {
	checkGrid("GenGrid", rows, cols, dropProb)
	var rng draws
	rng.seed(seed)
	drop := threshold(dropProb)
	ws := newWeights(maxWeight)
	n := rows * cols
	id := func(r, c int) VertexID { return VertexID(r*cols + c) }
	edges := make([]Edge, 0, 4*n)
	addBoth := func(a, b VertexID) {
		if rng.unit() < drop {
			return
		}
		w := weight(&rng, &ws)
		edges = append(edges, Edge{Src: a, Dst: b, Weight: w}, Edge{Src: b, Dst: a, Weight: w})
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				addBoth(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				addBoth(id(r, c), id(r+1, c))
			}
		}
	}
	return FromEdges(name, n, edges)
}

// checkGrid panics on a lattice side that is not positive and on a drop
// probability that is NaN or outside [0, 1]. The drop test compares the
// draw with threshold(dropProb), which would drop every pair for a NaN.
func checkGrid(fn string, rows, cols int, dropProb float64) {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("graph: %s grid %dx%d out of range", fn, rows, cols))
	}
	// Written so that a NaN fails the comparison.
	if !(dropProb >= 0 && dropProb <= 1) {
		panic(fmt.Sprintf("graph: %s drop probability %v out of range", fn, dropProb))
	}
}

// GenRMATN is GenRMAT for an arbitrary vertex count: endpoints are drawn
// by the Kronecker recursion over the next power of two and rejected when
// they land past numVertices. The heavy-tailed shape is preserved; exact
// quadrant probabilities shift slightly, which is irrelevant for the
// scaled stand-ins.
func GenRMATN(name string, numVertices int, avgDegree float64, p RMATParams, maxWeight uint32, seed int64) *CSR {
	if numVertices < 2 {
		panic(fmt.Sprintf("graph: GenRMATN needs ≥2 vertices, got %d", numVertices))
	}
	checkRMAT("GenRMATN", p, avgDegree)
	scale := 1
	for 1<<scale < numVertices {
		scale++
	}
	var rng draws
	rng.seed(seed)
	m := int(float64(numVertices) * avgDegree)
	perm := rng.perm(numVertices)
	s, w := newRMATSampler(p, scale), newWeights(maxWeight)
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		src, dst := s.next(&rng)
		if src >= numVertices || dst >= numVertices {
			continue
		}
		edges = append(edges, Edge{
			Src:    VertexID(perm[src]),
			Dst:    VertexID(perm[dst]),
			Weight: weight(&rng, &w),
		})
	}
	return FromEdges(name, numVertices, edges)
}

// newWeights returns the draw behind weight for maxWeight: uniform below
// maxWeight, or none (n = 0) when maxWeight ≤ 1 makes every weight 1.
func newWeights(maxWeight uint32) uniformN {
	if maxWeight <= 1 {
		return uniformN{}
	}
	return newUniformN(int(maxWeight))
}

// weight draws an edge weight uniform in [1, maxWeight], given
// w = newWeights(maxWeight).
func weight(rng *draws, w *uniformN) uint32 {
	if w.n == 0 {
		return 1
	}
	return 1 + uint32(rng.uniform(w))
}
