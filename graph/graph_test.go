package graph

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func sortEdges(es []Edge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Src != es[j].Src {
			return es[i].Src < es[j].Src
		}
		if es[i].Dst != es[j].Dst {
			return es[i].Dst < es[j].Dst
		}
		return es[i].Weight < es[j].Weight
	})
}

func randEdges(rng *rand.Rand, n, m int) []Edge {
	es := make([]Edge, m)
	for i := range es {
		es[i] = Edge{
			Src:    VertexID(rng.Intn(n)),
			Dst:    VertexID(rng.Intn(n)),
			Weight: uint32(1 + rng.Intn(16)),
		}
	}
	return es
}

func TestFromEdgesRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		in := randEdges(rng, n, rng.Intn(200))
		g := FromEdges("t", n, in)
		out := g.Edges()
		if int64(len(out)) != g.NumEdges() || len(out) != len(in) {
			return false
		}
		sortEdges(in)
		sortEdges(out)
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		g := FromEdges("t", n, randEdges(rng, n, rng.Intn(150)))
		tt := g.Transpose().Transpose()
		a, b := g.Edges(), tt.Edges()
		if len(a) != len(b) {
			return false
		}
		sortEdges(a)
		sortEdges(b)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeDegreeConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := FromEdges("t", 30, randEdges(rng, 30, 200))
	tr := g.Transpose()
	if g.NumEdges() != tr.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", g.NumEdges(), tr.NumEdges())
	}
	// In-degree of v in g == out-degree of v in transpose.
	indeg := make([]int64, 30)
	for _, d := range g.Dst {
		indeg[d]++
	}
	for v := 0; v < 30; v++ {
		if got := tr.OutDegree(VertexID(v)); got != indeg[v] {
			t.Fatalf("vertex %d: transpose outdeg %d, want indeg %d", v, got, indeg[v])
		}
	}
}

// TestViewsAreShared holds a graph to building each derived view once:
// concurrent first callers of Transpose and Symmetrize, in either order,
// all get the same pointer, and each view equals a fresh build.
func TestViewsAreShared(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := FromEdges("t", 50, randEdges(rng, 50, 400))
	const callers = 8
	trs, syms := make([]*CSR, callers), make([]*CSR, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				trs[i], syms[i] = g.Transpose(), g.Symmetrize()
			} else {
				syms[i], trs[i] = g.Symmetrize(), g.Transpose()
			}
		}(i)
	}
	wg.Wait()
	for i := range trs {
		if trs[i] != trs[0] || syms[i] != syms[0] {
			t.Fatalf("caller %d got a view of its own", i)
		}
	}
	if trs[0] != g.Transpose() || syms[0] != g.Symmetrize() {
		t.Fatal("a later caller got a view of its own")
	}
	sameCSR(t, trs[0], g.transpose())
	sameCSR(t, syms[0], g.symmetrize())
	if trs[0].Name != "t-T" || syms[0].Name != "t-sym" {
		t.Fatalf("view names %q, %q", trs[0].Name, syms[0].Name)
	}
}

func TestSymmetrize(t *testing.T) {
	g := FromEdges("t", 4, []Edge{{0, 1, 5}, {1, 2, 3}, {2, 1, 3}})
	s := g.Symmetrize()
	// Expect 0<->1 and 1<->2: 4 directed edges.
	if s.NumEdges() != 4 {
		t.Fatalf("symmetrized edges = %d, want 4", s.NumEdges())
	}
	adj := map[[2]VertexID]bool{}
	for _, e := range s.Edges() {
		adj[[2]VertexID{e.Src, e.Dst}] = true
	}
	for _, want := range [][2]VertexID{{0, 1}, {1, 0}, {1, 2}, {2, 1}} {
		if !adj[want] {
			t.Fatalf("missing edge %v", want)
		}
	}
	// Symmetry property on random graphs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		s := FromEdges("t", n, randEdges(rng, n, rng.Intn(100))).Symmetrize()
		adj := map[[2]VertexID]bool{}
		for _, e := range s.Edges() {
			adj[[2]VertexID{e.Src, e.Dst}] = true
		}
		for k := range adj {
			if !adj[[2]VertexID{k[1], k[0]}] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRelabel(t *testing.T) {
	g := FromEdges("t", 3, []Edge{{0, 1, 2}, {1, 2, 7}})
	perm := []VertexID{2, 0, 1}
	r := g.Relabel(perm)
	es := r.Edges()
	sortEdges(es)
	want := []Edge{{0, 1, 7}, {2, 0, 2}}
	if len(es) != 2 || es[0] != want[0] || es[1] != want[1] {
		t.Fatalf("relabeled edges = %v, want %v", es, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad permutation did not panic")
		}
	}()
	g.Relabel([]VertexID{0, 0, 1})
}

func TestGenUniform(t *testing.T) {
	g := GenUniform("u", 1000, 8, 64, 1)
	if g.NumVertices() != 1000 {
		t.Fatalf("V = %d", g.NumVertices())
	}
	if g.NumEdges() != 8000 {
		t.Fatalf("E = %d, want 8000", g.NumEdges())
	}
	for _, w := range g.Weight {
		if w < 1 || w > 64 {
			t.Fatalf("weight %d out of [1,64]", w)
		}
	}
	// Determinism.
	g2 := GenUniform("u", 1000, 8, 64, 1)
	for i := range g.Dst {
		if g.Dst[i] != g2.Dst[i] {
			t.Fatal("generator not deterministic")
		}
	}
}

func TestGenRMATPowerLaw(t *testing.T) {
	g := GenRMAT("r", 12, 16, DefaultRMAT, 1, 7)
	if g.NumVertices() != 4096 {
		t.Fatalf("V = %d", g.NumVertices())
	}
	// Heavy tail: max degree far above average.
	if g.MaxDegree() < int64(8*g.AvgDegree()) {
		t.Fatalf("max degree %d not heavy-tailed vs avg %.1f", g.MaxDegree(), g.AvgDegree())
	}
}

func TestGenGrid(t *testing.T) {
	g := GenGrid("g", 10, 10, 0, 1, 1)
	if g.NumVertices() != 100 {
		t.Fatalf("V = %d", g.NumVertices())
	}
	// Full grid: 2*(10*9*2) = 360 directed edges.
	if g.NumEdges() != 360 {
		t.Fatalf("E = %d, want 360", g.NumEdges())
	}
	// Grid is symmetric by construction.
	adj := map[[2]VertexID]bool{}
	for _, e := range g.Edges() {
		adj[[2]VertexID{e.Src, e.Dst}] = true
	}
	for k := range adj {
		if !adj[[2]VertexID{k[1], k[0]}] {
			t.Fatalf("grid missing reverse edge of %v", k)
		}
	}
	// Drop probability thins it out.
	thin := GenGrid("g", 10, 10, 0.5, 1, 1)
	if thin.NumEdges() >= g.NumEdges() {
		t.Fatal("dropProb did not reduce edges")
	}
}

func TestPartitionsCoverEveryVertexOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := FromEdges("t", 100, randEdges(rng, 100, 500))
	parts := 8
	all := []*Partition{
		PartitionInterleave(100, parts),
		PartitionRange(100, parts),
		PartitionRandom(100, parts, 5),
		PartitionLoadBalanced(g, parts),
		PartitionLocality(g, parts),
	}
	for _, p := range all {
		if p.NumVertices() != 100 {
			t.Fatalf("%s: covers %d vertices", p.Method, p.NumVertices())
		}
		for v, o := range p.Owner {
			if o < 0 || o >= parts {
				t.Fatalf("%s: vertex %d assigned to invalid part %d", p.Method, v, o)
			}
		}
		sum := 0
		for _, c := range p.Counts() {
			sum += c
		}
		if sum != 100 {
			t.Fatalf("%s: counts sum to %d", p.Method, sum)
		}
	}
}

func TestPartitionInterleaveBalance(t *testing.T) {
	p := PartitionInterleave(1000, 8)
	for _, c := range p.Counts() {
		if c != 125 {
			t.Fatalf("interleave counts = %v", p.Counts())
		}
	}
}

func TestPartitionRangeContiguous(t *testing.T) {
	p := PartitionRange(100, 7)
	for v := 1; v < 100; v++ {
		if p.Owner[v] < p.Owner[v-1] {
			t.Fatal("range partition not monotone")
		}
	}
	if p.Owner[0] != 0 || p.Owner[99] != 6 {
		t.Fatalf("range endpoints: %d, %d", p.Owner[0], p.Owner[99])
	}
}

func TestPartitionLoadBalancedBeatsRangeOnSkew(t *testing.T) {
	// A graph where the first few vertices own almost all edges.
	var edges []Edge
	for i := 0; i < 4; i++ {
		for j := 0; j < 250; j++ {
			edges = append(edges, Edge{Src: VertexID(i), Dst: VertexID(j % 100), Weight: 1})
		}
	}
	g := FromEdges("skew", 100, edges)
	lb := PartitionLoadBalanced(g, 4)
	rg := PartitionRange(100, 4)
	if lb.Imbalance(g) >= rg.Imbalance(g) {
		t.Fatalf("load-balanced imbalance %.2f not better than range %.2f",
			lb.Imbalance(g), rg.Imbalance(g))
	}
	if lb.Imbalance(g) > 1.05 {
		t.Fatalf("load-balanced imbalance %.2f, want ~1.0", lb.Imbalance(g))
	}
}

func TestPartitionLocalityReducesCut(t *testing.T) {
	// Locality partitioning should cut far fewer edges on a grid than
	// random assignment.
	g := GenGrid("g", 32, 32, 0, 1, 1)
	loc := PartitionLocality(g, 8)
	rnd := PartitionRandom(g.NumVertices(), 8, 9)
	if loc.CutFraction(g) >= rnd.CutFraction(g) {
		t.Fatalf("locality cut %.3f not below random cut %.3f",
			loc.CutFraction(g), rnd.CutFraction(g))
	}
}

func TestCutFractionBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		g := FromEdges("t", n, randEdges(rng, n, rng.Intn(200)))
		p := PartitionRandom(n, 1+rng.Intn(8), seed)
		c := p.CutFraction(g)
		return c >= 0 && c <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	// Single part never cuts.
	g := GenUniform("u", 100, 4, 1, 2)
	if c := PartitionInterleave(100, 1).CutFraction(g); c != 0 {
		t.Fatalf("1-part cut = %v", c)
	}
}

func TestLargestOutDegreeVertex(t *testing.T) {
	g := FromEdges("t", 5, []Edge{{1, 0, 1}, {1, 2, 1}, {1, 3, 1}, {2, 0, 1}})
	if v := g.LargestOutDegreeVertex(); v != 1 {
		t.Fatalf("hub = %d, want 1", v)
	}
}

func TestFootprintBytes(t *testing.T) {
	g := FromEdges("t", 10, []Edge{{0, 1, 1}})
	if got := g.FootprintBytes(); got != 10*16+8 {
		t.Fatalf("footprint = %d", got)
	}
}

func TestGenRMATN(t *testing.T) {
	g := GenRMATN("r", 1000, 8, DefaultRMAT, 4, 9)
	if g.NumVertices() != 1000 {
		t.Fatalf("V = %d", g.NumVertices())
	}
	if g.NumEdges() != 8000 {
		t.Fatalf("E = %d", g.NumEdges())
	}
	if g.MaxDegree() < int64(4*g.AvgDegree()) {
		t.Fatalf("max degree %d not heavy-tailed", g.MaxDegree())
	}
	for _, d := range g.Dst {
		if int(d) >= 1000 {
			t.Fatalf("edge endpoint %d out of range", d)
		}
	}
}

func TestSymmetrizeDeterministicMinWeight(t *testing.T) {
	g := FromEdges("t", 3, []Edge{{0, 1, 9}, {0, 1, 2}, {1, 0, 5}})
	s := g.Symmetrize()
	if s.NumEdges() != 2 {
		t.Fatalf("E = %d, want 2", s.NumEdges())
	}
	for _, e := range s.Edges() {
		if e.Weight != 2 {
			t.Fatalf("duplicate collapse kept weight %d, want min 2", e.Weight)
		}
	}
}

func TestPartitionLocalityHierarchical(t *testing.T) {
	g := GenGrid("g", 32, 32, 0, 1, 1)
	p := PartitionLocalityHierarchical(g, 4, 8)
	if p.Parts != 32 || p.NumVertices() != g.NumVertices() {
		t.Fatalf("geometry: parts=%d verts=%d", p.Parts, p.NumVertices())
	}
	// Group-level cut must beat random's group-level cut.
	groupCut := func(part *Partition, perGroup int) float64 {
		var cut int64
		for v := 0; v < g.NumVertices(); v++ {
			gv := part.Owner[v] / perGroup
			for _, d := range g.Neighbors(VertexID(v)) {
				if part.Owner[d]/perGroup != gv {
					cut++
				}
			}
		}
		return float64(cut) / float64(g.NumEdges())
	}
	rnd := PartitionRandom(g.NumVertices(), 32, 7)
	if lc, rc := groupCut(p, 8), groupCut(rnd, 8); lc >= rc {
		t.Fatalf("hierarchical locality group cut %.3f not below random %.3f", lc, rc)
	}
	// Within a group, vertices interleave across all 8 PEs.
	used := map[int]bool{}
	for _, o := range p.Owner {
		used[o] = true
	}
	if len(used) != 32 {
		t.Fatalf("only %d of 32 PEs used", len(used))
	}
	// Single group degenerates to interleave.
	p1 := PartitionLocalityHierarchical(g, 1, 8)
	for v, o := range p1.Owner {
		if o != v%8 {
			t.Fatal("single-group hierarchical locality should interleave")
		}
	}
}
