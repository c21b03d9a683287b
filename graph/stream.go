package graph

import "fmt"

// Streaming generators for the large-graph scale tier. The batch
// generators in gen.go materialize the whole edge list before bucketing it
// into CSR form — fine at the paper's scaled-down sizes, but a 3× memory
// blowup once graphs grow to tens of millions of edges. An EdgeStream
// emits edges one at a time in O(1) state beyond the generator parameters,
// and is resettable, so consumers can make the multiple passes a
// constant-memory CSR build needs (count degrees, then scatter) without
// ever holding []Edge.
//
// Streams are deterministic: the same parameters and seed always produce
// the same edge sequence, and Reset rewinds to the first edge.

// EdgeStream is a resettable, deterministic edge generator.
type EdgeStream interface {
	// Name labels graphs built from the stream.
	Name() string
	// NumVertices returns |V| of the generated graph.
	NumVertices() int
	// Next returns the next edge, or ok=false when the stream is done.
	Next() (Edge, bool)
	// Reset rewinds the stream to the first edge of the same sequence.
	Reset()
}

// FromStream builds an in-memory CSR from a stream in two passes: pass one
// counts out-degrees into the row pointers, pass two scatters destinations
// and weights directly into their final slots. Peak memory is the CSR
// itself plus O(|V|) cursors — the edge list is never materialized.
func FromStream(st EdgeStream) *CSR {
	n := st.NumVertices()
	rowPtr := make([]int64, n+1)
	st.Reset()
	var m int64
	for {
		e, ok := st.Next()
		if !ok {
			break
		}
		if int(e.Src) >= n || int(e.Dst) >= n {
			panic(fmt.Sprintf("graph: stream edge %d->%d out of range %d", e.Src, e.Dst, n))
		}
		rowPtr[e.Src+1]++
		m++
	}
	for i := 1; i <= n; i++ {
		rowPtr[i] += rowPtr[i-1]
	}
	dst := make([]VertexID, m)
	wgt := make([]uint32, m)
	cursor := make([]int64, n)
	st.Reset()
	for {
		e, ok := st.Next()
		if !ok {
			break
		}
		p := rowPtr[e.Src] + cursor[e.Src]
		cursor[e.Src]++
		dst[p] = e.Dst
		w := e.Weight
		if w == 0 {
			w = 1
		}
		wgt[p] = w
	}
	return &CSR{RowPtr: rowPtr, Dst: dst, Weight: wgt, Name: st.Name()}
}

// vertexMix is a seeded bijection over [0, 2^bits): alternating rounds of
// odd-multiplication mod 2^bits and xorshift, both invertible, scramble
// vertex IDs the way gen.go's rng.perm does — but in O(1) state instead of
// an O(|V|) permutation table. Composed with rejection sampling it stays a
// bijection on any [0, n) ⊆ [0, 2^bits) domain.
type vertexMix struct {
	bits  int
	mask  uint64
	mult  [2]uint64
	xor   [2]uint64
	shift uint
}

func newVertexMix(bits int, seed int64) vertexMix {
	var rng draws
	rng.seed(seed ^ 0x6d6978) // "mix"
	shift := uint(bits) / 2
	if shift == 0 {
		shift = 1
	}
	return vertexMix{
		bits:  bits,
		mask:  1<<bits - 1,
		mult:  [2]uint64{rng.uint64() | 1, rng.uint64() | 1}, // odd ⇒ invertible mod 2^bits
		xor:   [2]uint64{rng.uint64(), rng.uint64()},
		shift: shift,
	}
}

func (m vertexMix) apply(v uint64) uint64 {
	for r := 0; r < 2; r++ {
		v = (v * m.mult[r]) & m.mask
		v ^= (v >> m.shift) ^ (m.xor[r] & m.mask)
	}
	return v & m.mask
}

// RMATStream streams a Kronecker (R-MAT) graph: numVertices vertices and
// exactly numEdges edges drawn by the recursive quadrant walk over the
// next power of two, with endpoints landing past numVertices rejected
// (preserving the heavy tail, like GenRMATN) and IDs scrambled by a
// seeded bijection so the natural order carries no community structure.
type RMATStream struct {
	name        string
	numVertices int
	numEdges    int64
	sampler     rmatSampler
	weights     uniformN
	seed        int64
	mix         vertexMix

	rng     draws
	emitted int64
}

// NewRMATStream returns a streaming R-MAT generator emitting
// numVertices·avgDegree edges. It panics on a degenerate vertex count or
// out-of-range parameters, matching GenRMATN.
func NewRMATStream(name string, numVertices int, avgDegree float64, p RMATParams, maxWeight uint32, seed int64) *RMATStream {
	if numVertices < 2 {
		panic(fmt.Sprintf("graph: NewRMATStream needs ≥2 vertices, got %d", numVertices))
	}
	checkRMAT("NewRMATStream", p, avgDegree)
	scale := 1
	for 1<<scale < numVertices {
		scale++
	}
	s := &RMATStream{
		name:        name,
		numVertices: numVertices,
		numEdges:    int64(float64(numVertices) * avgDegree),
		sampler:     newRMATSampler(p, scale),
		weights:     newWeights(maxWeight),
		seed:        seed,
		mix:         newVertexMix(scale, seed),
	}
	s.Reset()
	return s
}

// Name implements EdgeStream.
func (s *RMATStream) Name() string { return s.name }

// NumVertices implements EdgeStream.
func (s *RMATStream) NumVertices() int { return s.numVertices }

// Reset implements EdgeStream.
func (s *RMATStream) Reset() {
	s.rng.seed(s.seed)
	s.emitted = 0
}

// Next implements EdgeStream.
func (s *RMATStream) Next() (Edge, bool) {
	if s.emitted >= s.numEdges {
		return Edge{}, false
	}
	for {
		src, dst := s.sampler.next(&s.rng)
		ss := s.mix.apply(uint64(src))
		dd := s.mix.apply(uint64(dst))
		if ss >= uint64(s.numVertices) || dd >= uint64(s.numVertices) {
			continue
		}
		s.emitted++
		return Edge{
			Src:    VertexID(ss),
			Dst:    VertexID(dd),
			Weight: weight(&s.rng, &s.weights),
		}, true
	}
}

// UniformStream streams an Erdős–Rényi-style uniform random digraph —
// the constant-memory counterpart of GenUniform.
type UniformStream struct {
	name        string
	numVertices int
	numEdges    int64
	vertex      uniformN
	weights     uniformN
	seed        int64

	rng     draws
	emitted int64
}

// NewUniformStream returns a streaming uniform generator emitting
// numVertices·avgDegree edges.
func NewUniformStream(name string, numVertices int, avgDegree float64, maxWeight uint32, seed int64) *UniformStream {
	if numVertices < 1 {
		panic(fmt.Sprintf("graph: NewUniformStream needs ≥1 vertex, got %d", numVertices))
	}
	checkDegree("NewUniformStream", avgDegree)
	s := &UniformStream{
		name:        name,
		numVertices: numVertices,
		numEdges:    int64(float64(numVertices) * avgDegree),
		vertex:      newUniformN(numVertices),
		weights:     newWeights(maxWeight),
		seed:        seed,
	}
	s.Reset()
	return s
}

// Name implements EdgeStream.
func (s *UniformStream) Name() string { return s.name }

// NumVertices implements EdgeStream.
func (s *UniformStream) NumVertices() int { return s.numVertices }

// Reset implements EdgeStream.
func (s *UniformStream) Reset() {
	s.rng.seed(s.seed)
	s.emitted = 0
}

// Next implements EdgeStream.
func (s *UniformStream) Next() (Edge, bool) {
	if s.emitted >= s.numEdges {
		return Edge{}, false
	}
	s.emitted++
	return Edge{
		Src:    VertexID(s.rng.uniform(&s.vertex)),
		Dst:    VertexID(s.rng.uniform(&s.vertex)),
		Weight: weight(&s.rng, &s.weights),
	}, true
}

// GridStream streams the rows×cols lattice of GenGrid edge for edge: it
// draws from the rng in exactly GenGrid's order, so FromStream(GridStream)
// is identical to the materializing generator with the same parameters.
type GridStream struct {
	name       string
	rows, cols int
	drop       uint64 // threshold(dropProb)
	weights    uniformN
	seed       int64

	rng draws
	// Walk state: current cell, which neighbour (0 = right, 1 = down),
	// and the mirrored edge still owed from the last kept pair.
	r, c, phase int
	pending     Edge
	hasPending  bool
}

// NewGridStream returns a streaming 2D-lattice generator. It panics on
// the parameters GenGrid rejects.
func NewGridStream(name string, rows, cols int, dropProb float64, maxWeight uint32, seed int64) *GridStream {
	checkGrid("NewGridStream", rows, cols, dropProb)
	s := &GridStream{
		name: name, rows: rows, cols: cols,
		drop: threshold(dropProb), weights: newWeights(maxWeight), seed: seed,
	}
	s.Reset()
	return s
}

// Name implements EdgeStream.
func (s *GridStream) Name() string { return s.name }

// NumVertices implements EdgeStream.
func (s *GridStream) NumVertices() int { return s.rows * s.cols }

// Reset implements EdgeStream.
func (s *GridStream) Reset() {
	s.rng.seed(s.seed)
	s.r, s.c, s.phase = 0, 0, 0
	s.hasPending = false
}

func (s *GridStream) id(r, c int) VertexID { return VertexID(r*s.cols + c) }

// Next implements EdgeStream.
func (s *GridStream) Next() (Edge, bool) {
	if s.hasPending {
		s.hasPending = false
		return s.pending, true
	}
	for s.r < s.rows {
		var a, b VertexID
		switch s.phase {
		case 0:
			s.phase = 1
			if s.c+1 >= s.cols {
				continue
			}
			a, b = s.id(s.r, s.c), s.id(s.r, s.c+1)
		default:
			s.phase = 0
			down := s.r+1 < s.rows
			// Advance the cell cursor before emitting, so the walk
			// resumes correctly after the pair is returned.
			if s.c+1 < s.cols {
				s.c++
			} else {
				s.c = 0
				s.r++
			}
			if !down {
				continue
			}
			r, c := s.r, s.c
			// The cursor already moved; recover the cell the edge
			// belongs to.
			if c == 0 {
				r, c = r-1, s.cols-1
			} else {
				c--
			}
			a, b = s.id(r, c), s.id(r+1, c)
		}
		if s.rng.unit() < s.drop {
			continue
		}
		w := weight(&s.rng, &s.weights)
		s.pending = Edge{Src: b, Dst: a, Weight: w}
		s.hasPending = true
		return Edge{Src: a, Dst: b, Weight: w}, true
	}
	return Edge{}, false
}

var (
	_ EdgeStream = (*RMATStream)(nil)
	_ EdgeStream = (*UniformStream)(nil)
	_ EdgeStream = (*GridStream)(nil)
)
