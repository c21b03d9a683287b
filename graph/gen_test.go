package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"
)

// csrHash is FNV-64a over the little-endian bytes of RowPtr, then Dst, then
// Weight: a content hash of everything a simulation reads from a graph.
func csrHash(g *CSR) uint64 {
	buf := make([]byte, 0, 8*len(g.RowPtr)+4*len(g.Dst)+4*len(g.Weight))
	for _, r := range g.RowPtr {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r))
	}
	for _, d := range g.Dst {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
	}
	for _, w := range g.Weight {
		buf = binary.LittleEndian.AppendUint32(buf, w)
	}
	h := fnv.New64a()
	h.Write(buf)
	return h.Sum64()
}

// TestGeneratorGolden pins every generator's output byte for byte. Every
// golden stats cell, figure and benchmark workload starts from one of these
// graphs, so a generator change that moves a single edge shows here first,
// by name, rather than as a drifted cycle count further down. The rows
// include the golden cells' graph and the sssp-rmat benchmark graph; two
// use maxWeight 1, at which no weight is drawn from the generator's rng.
func TestGeneratorGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  func() *CSR
		want uint64
	}{
		{"GenRMAT/s12x4/seed1", func() *CSR { return GenRMAT("g", 12, 4, DefaultRMAT, 64, 1) }, 0x1933e922c3538ac9},
		{"GenRMAT/s12x4/seed7", func() *CSR { return GenRMAT("g", 12, 4, DefaultRMAT, 64, 7) }, 0x94a9646d118770eb},
		{"GenRMAT/s14x16/seed1", func() *CSR { return GenRMAT("g", 14, 16, DefaultRMAT, 64, 1) }, 0x0e88c98dc052f2ec},
		{"GenRMAT/s14x16/seed7", func() *CSR { return GenRMAT("g", 14, 16, DefaultRMAT, 1, 7) }, 0xefd29a024d2dd385},
		{"GenRMATN/2048x8/seed1", func() *CSR { return GenRMATN("g", 2048, 8, DefaultRMAT, 64, 1) }, 0x36463defa733f147},
		{"GenRMATN/2048x8/seed7", func() *CSR { return GenRMATN("golden", 2048, 8, DefaultRMAT, 64, 7) }, 0xd7420f366e6d3438},
		{"GenRMATN/40000x35/seed1", func() *CSR { return GenRMATN("g", 40000, 35, DefaultRMAT, 64, 1) }, 0x601ee61b8155ab3f},
		{"GenRMATN/40000x35/seed7", func() *CSR { return GenRMATN("twitter", 40000, 35, DefaultRMAT, 64, 7) }, 0xe6580038f57b0305},
		{"RMATStream/2048x8/seed1", func() *CSR { return FromStream(NewRMATStream("g", 2048, 8, DefaultRMAT, 64, 1)) }, 0xab6753ebd763f57c},
		{"RMATStream/2048x8/seed7", func() *CSR { return FromStream(NewRMATStream("g", 2048, 8, DefaultRMAT, 64, 7)) }, 0xbb7e7dbfd49c73d9},
		{"RMATStream/5000x12/seed1", func() *CSR { return FromStream(NewRMATStream("g", 5000, 12, DefaultRMAT, 64, 1)) }, 0x47db466cd04ba9f4},
		{"RMATStream/5000x12/seed7", func() *CSR { return FromStream(NewRMATStream("g", 5000, 12, DefaultRMAT, 1, 7)) }, 0x5641d2c2e2d482c1},
		{"GenUniform/2000x8/seed1", func() *CSR { return GenUniform("g", 2000, 8, 64, 1) }, 0xa0d033f0447718a2},
		{"GenUniform/2000x8/seed7", func() *CSR { return GenUniform("g", 2000, 8, 64, 7) }, 0x6fb043385b42ccaf},
		{"GenUniform/20000x8/seed1", func() *CSR { return GenUniform("g", 20000, 8, 64, 1) }, 0x68a2f681a58fc021},
		{"GenUniform/20000x8/seed7", func() *CSR { return GenUniform("g", 20000, 8, 64, 7) }, 0xb840ae1feebb58f0},
		{"GenGrid/32x48/seed1", func() *CSR { return GenGrid("g", 32, 48, 0.2, 64, 1) }, 0xccdec8b23df9792c},
		{"GenGrid/32x48/seed7", func() *CSR { return GenGrid("g", 32, 48, 0.2, 64, 7) }, 0x255f7fc8a962fa23},
		{"GenGrid/340x272/seed1", func() *CSR { return GenGrid("road", 340, 272, 0.39, 64, 1) }, 0x615d07333d04fec3},
		{"GenGrid/340x272/seed7", func() *CSR { return GenGrid("road", 340, 272, 0.39, 64, 7) }, 0x38419f5822fe0e0d},
		{"GenUniform/2000x8/seed1/w2^32-1", func() *CSR { return GenUniform("g", 2000, 8, math.MaxUint32, 1) }, 0xb5994185bb08ce21},
		{"UniformStream/2000x8/seed1", func() *CSR { return FromStream(NewUniformStream("g", 2000, 8, 64, 1)) }, 0xa0d033f0447718a2},
		{"UniformStream/2000x8/seed7", func() *CSR { return FromStream(NewUniformStream("g", 2000, 8, 1, 7)) }, 0x62ae2dc54fcadd23},
		{"UniformStream/20000x8/seed7", func() *CSR { return FromStream(NewUniformStream("serve", 20000, 8, 64, 7)) }, 0xb840ae1feebb58f0},
		{"GridStream/32x48/seed1", func() *CSR { return FromStream(NewGridStream("g", 32, 48, 0.2, 64, 1)) }, 0xccdec8b23df9792c},
		{"GridStream/32x48/seed7", func() *CSR { return FromStream(NewGridStream("g", 32, 48, 0.2, 1, 7)) }, 0x60f0de9c61e04711},
		{"GridStream/340x272/seed7", func() *CSR { return FromStream(NewGridStream("road", 340, 272, 0.39, 64, 7)) }, 0x38419f5822fe0e0d},
	} {
		if got := csrHash(tc.gen()); got != tc.want {
			t.Errorf("%s: hash %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
	// PartitionRandom draws every owner from the generators' draw path; the
	// 32 parts are the benchmark's 4 GPNs × 8 PEs.
	for _, tc := range []struct {
		n, parts int
		seed     int64
		want     uint64
	}{
		{40000, 32, 1, 0xb32f3f157e11a760},
		{40000, 32, 7, 0x2866e255939dc4a7},
	} {
		if got := ownerHash(PartitionRandom(tc.n, tc.parts, tc.seed).Owner); got != tc.want {
			t.Errorf("PartitionRandom/%dx%d/seed%d: hash %#016x, want %#016x", tc.n, tc.parts, tc.seed, got, tc.want)
		}
	}
}

// ownerHash is FNV-64a over the little-endian uint32 bytes of a partition's
// owners.
func ownerHash(owner []int) uint64 {
	buf := make([]byte, 0, 4*len(owner))
	for _, o := range owner {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(o))
	}
	h := fnv.New64a()
	h.Write(buf)
	return h.Sum64()
}

// TestGeneratorsRejectBadParameters holds the R-MAT, uniform and grid
// constructors to panicking, by name, on parameters that describe no
// distribution — before any edge is sized or drawn. Negative b or c would
// also leave the R-MAT sampler's thresholds out of order, and a NaN drop
// probability would drop every pair of the grid.
func TestGeneratorsRejectBadParameters(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	rmat := []struct {
		name string
		p    RMATParams
		deg  float64
	}{
		{"NaN a", RMATParams{nan, 0.19, 0.19}, 8},
		{"negative b", RMATParams{0.57, -0.1, 0.19}, 8},
		{"negative c", RMATParams{0.57, 0.19, -0.1}, 8},
		{"NaN c", RMATParams{0.57, 0.19, nan}, 8},
		{"infinite a", RMATParams{inf, 0.19, 0.19}, 8},
		{"sum past 1", RMATParams{0.6, 0.3, 0.3}, 8},
		{"NaN degree", DefaultRMAT, nan},
		{"negative degree", DefaultRMAT, -2},
		{"infinite degree", DefaultRMAT, inf},
	}
	type badCall struct {
		name, fn string
		build    func()
	}
	var cases []badCall
	for _, tc := range rmat {
		p, deg := tc.p, tc.deg
		cases = append(cases,
			badCall{tc.name, "GenRMAT", func() { GenRMAT("g", 6, deg, p, 64, 1) }},
			badCall{tc.name, "GenRMATN", func() { GenRMATN("g", 50, deg, p, 64, 1) }},
			badCall{tc.name, "NewRMATStream", func() { NewRMATStream("g", 50, deg, p, 64, 1) }})
	}
	for _, deg := range []float64{nan, -2, inf} {
		deg := deg
		name := fmt.Sprintf("degree %v", deg)
		cases = append(cases,
			badCall{name, "GenUniform", func() { GenUniform("g", 50, deg, 64, 1) }},
			badCall{name, "NewUniformStream", func() { NewUniformStream("g", 50, deg, 64, 1) }})
	}
	for _, tc := range []struct {
		name       string
		rows, cols int
		drop       float64
	}{
		{"NaN drop", 4, 5, nan},
		{"negative drop", 4, 5, -0.1},
		{"drop above 1", 4, 5, 1.5},
		{"infinite drop", 4, 5, inf},
		{"no rows", 0, 5, 0.2},
		{"negative rows", -1, 5, 0.2},
		{"no cols", 4, 0, 0.2},
	} {
		rows, cols, drop := tc.rows, tc.cols, tc.drop
		cases = append(cases,
			badCall{tc.name, "GenGrid", func() { GenGrid("g", rows, cols, drop, 64, 1) }},
			badCall{tc.name, "NewGridStream", func() { NewGridStream("g", rows, cols, drop, 64, 1) }})
	}
	for _, tc := range cases {
		msg := panicMessage(tc.build)
		if !strings.Contains(msg, "graph: "+tc.fn+" ") || !strings.Contains(msg, "out of range") {
			t.Errorf("%s(%s): panic %q, want one from %s naming the bad value", tc.fn, tc.name, msg, tc.fn)
		}
	}
	// Controls: the edges of the accepted range build.
	GenRMATN("g", 50, 0, RMATParams{0.25, 0.25, 0.5}, 64, 1)
	GenRMAT("g", 6, 2, RMATParams{0, 0, 0}, 64, 1)
	NewUniformStream("g", 50, 0, 64, 1)
	if g := GenGrid("g", 1, 1, 1, 64, 1); g.NumVertices() != 1 {
		t.Errorf("GenGrid 1x1: %d vertices", g.NumVertices())
	}
	if g := GenGrid("g", 3, 3, 1, 64, 1); g.NumEdges() != 0 {
		t.Errorf("GenGrid at drop 1: %d edges, want 0", g.NumEdges())
	}
	if st := NewGridStream("g", 3, 3, 0, 64, 1); st.NumEdges() != 24 {
		t.Errorf("NewGridStream at drop 0: %d edges, want 24", st.NumEdges())
	}
}

// panicMessage runs f and returns what it panicked with, or "" if it
// returned.
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}
