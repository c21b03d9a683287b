package graph

import (
	"fmt"
	"math"
	"math/rand"
)

// Generators for the synthetic stand-ins of the paper's inputs (Table III).
// All generators are deterministic for a given seed.

// GenUniform generates an Erdős–Rényi-style uniform random digraph with the
// given average out-degree — the stand-in for the paper's Urand input.
// Weights are uniform in [1, maxWeight].
func GenUniform(name string, numVertices int, avgDegree float64, maxWeight uint32, seed int64) *CSR {
	checkDegree("GenUniform", avgDegree)
	rng := rand.New(rand.NewSource(seed))
	m := int(float64(numVertices) * avgDegree)
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, Edge{
			Src:    VertexID(rng.Intn(numVertices)),
			Dst:    VertexID(rng.Intn(numVertices)),
			Weight: weight(rng, maxWeight),
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
func GenRMAT(name string, scale int, avgDegree float64, p RMATParams, maxWeight uint32, seed int64) *CSR {
	if scale < 1 || scale > 30 {
		panic(fmt.Sprintf("graph: GenRMAT scale %d out of range", scale))
	}
	checkRMAT("GenRMAT", p, avgDegree)
	rng := rand.New(rand.NewSource(seed))
	n := 1 << scale
	m := int(float64(n) * avgDegree)
	perm := rng.Perm(n)
	s := newRMATSampler(p, scale)
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		src, dst := s.next(rng)
		edges = append(edges, Edge{
			Src:    VertexID(perm[src]),
			Dst:    VertexID(perm[dst]),
			Weight: weight(rng, maxWeight),
		})
	}
	return FromEdges(name, n, edges)
}

// rmatSampler is the Kronecker recursion every R-MAT generator shares: one
// rng.Float64 per bit of the vertex-ID space, each picking a quadrant of
// the adjacency matrix with probabilities a, b, c and 1−a−b−c. The
// quadrant is the number of thresholds a, a+b and a+b+c at or below the
// draw, counted without a branch, since no predictor can guess a branch on
// a uniform draw. While the thresholds are in order, which checkRMAT
// guarantees, the count is the index of the interval [0,a), [a,a+b),
// [a+b,a+b+c) or [a+b+c,1) that holds the draw.
type rmatSampler struct {
	scale      int
	a, ab, abc float64
}

func newRMATSampler(p RMATParams, scale int) rmatSampler {
	return rmatSampler{scale: scale, a: p.A, ab: p.A + p.B, abc: p.A + p.B + p.C}
}

// next draws one cell of the 2^scale × 2^scale adjacency matrix. Quadrant
// q sets dst's bit from its low bit and src's from its high bit: 0 is
// top-left, 1 top-right, 2 bottom-left and 3 bottom-right.
func (s rmatSampler) next(rng *rand.Rand) (src, dst int) {
	for bit := 0; bit < s.scale; bit++ {
		r := rng.Float64()
		q := b2i(r >= s.a) + b2i(r >= s.ab) + b2i(r >= s.abc)
		dst |= (q & 1) << bit
		src |= (q >> 1) << bit
	}
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
// dropProb ≈ 0.39).
func GenGrid(name string, rows, cols int, dropProb float64, maxWeight uint32, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	n := rows * cols
	id := func(r, c int) VertexID { return VertexID(r*cols + c) }
	edges := make([]Edge, 0, 4*n)
	addBoth := func(a, b VertexID) {
		if rng.Float64() < dropProb {
			return
		}
		w := weight(rng, maxWeight)
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
	rng := rand.New(rand.NewSource(seed))
	m := int(float64(numVertices) * avgDegree)
	perm := rng.Perm(numVertices)
	s := newRMATSampler(p, scale)
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		src, dst := s.next(rng)
		if src >= numVertices || dst >= numVertices {
			continue
		}
		edges = append(edges, Edge{
			Src:    VertexID(perm[src]),
			Dst:    VertexID(perm[dst]),
			Weight: weight(rng, maxWeight),
		})
	}
	return FromEdges(name, numVertices, edges)
}

func weight(rng *rand.Rand, maxWeight uint32) uint32 {
	if maxWeight <= 1 {
		return 1
	}
	return 1 + uint32(rng.Intn(int(maxWeight)))
}
