package ref

import (
	"math"
	"testing"

	"nova/graph"
)

// diamond: 0->1, 0->2, 1->3, 2->3, 3->4
func diamond() *graph.CSR {
	return graph.FromEdges("diamond", 5, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1},
		{Src: 0, Dst: 2, Weight: 4},
		{Src: 1, Dst: 3, Weight: 1},
		{Src: 2, Dst: 3, Weight: 1},
		{Src: 3, Dst: 4, Weight: 2},
	})
}

func TestBFS(t *testing.T) {
	d := BFS(diamond(), 0)
	want := []int64{0, 1, 1, 2, 3}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("BFS = %v, want %v", d, want)
		}
	}
	// Unreachable vertices.
	g := graph.FromEdges("two", 3, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}})
	d = BFS(g, 0)
	if d[2] != Unreached {
		t.Fatalf("vertex 2 should be unreached, got %d", d[2])
	}
}

func TestSSSP(t *testing.T) {
	d := SSSP(diamond(), 0)
	// 0->1->3 costs 2, 0->2->3 costs 5: best to 3 is 2, to 4 is 4.
	want := []int64{0, 1, 4, 2, 4}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("SSSP = %v, want %v", d, want)
		}
	}
}

func TestSSSPAgreesWithBFSOnUnitWeights(t *testing.T) {
	g := graph.GenRMAT("r", 10, 8, graph.DefaultRMAT, 1, 3)
	root := g.LargestOutDegreeVertex()
	bfs := BFS(g, root)
	sssp := SSSP(g, root)
	for v := range bfs {
		if bfs[v] != sssp[v] {
			t.Fatalf("vertex %d: bfs %d != sssp %d with unit weights", v, bfs[v], sssp[v])
		}
	}
}

func TestCC(t *testing.T) {
	// Components {0,1,2} and {3,4}; 5 isolated.
	g := graph.FromEdges("cc", 6, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 0, Weight: 1},
		{Src: 1, Dst: 2, Weight: 1}, {Src: 2, Dst: 1, Weight: 1},
		{Src: 3, Dst: 4, Weight: 1}, {Src: 4, Dst: 3, Weight: 1},
	})
	l := CC(g)
	want := []int64{0, 0, 0, 3, 3, 5}
	for i := range want {
		if l[i] != want[i] {
			t.Fatalf("CC = %v, want %v", l, want)
		}
	}
}

func TestCCMinLabelSemantics(t *testing.T) {
	// A chain where the smallest ID is in the middle: 5-2-7 plus 2-0.
	g := graph.FromEdges("chain", 8, []graph.Edge{
		{Src: 5, Dst: 2, Weight: 1}, {Src: 2, Dst: 5, Weight: 1},
		{Src: 2, Dst: 7, Weight: 1}, {Src: 7, Dst: 2, Weight: 1},
		{Src: 2, Dst: 0, Weight: 1}, {Src: 0, Dst: 2, Weight: 1},
	}).Symmetrize()
	l := CC(g)
	for _, v := range []int{0, 2, 5, 7} {
		if l[v] != 0 {
			t.Fatalf("label[%d] = %d, want 0 (component minimum)", v, l[v])
		}
	}
}

// TestCCDirectedInputIsWeak: CC labels the weakly connected components
// of a graph that is not symmetric, as of its symmetrized view.
func TestCCDirectedInputIsWeak(t *testing.T) {
	// 1→0, 2→0, and 4→3 with 3 pointing nowhere; 5 isolated.
	g := graph.FromEdges("in-stars", 6, []graph.Edge{
		{Src: 1, Dst: 0, Weight: 1}, {Src: 2, Dst: 0, Weight: 1},
		{Src: 4, Dst: 3, Weight: 1},
	})
	want := []int64{0, 0, 0, 3, 3, 5}
	for _, in := range []*graph.CSR{g, g.Symmetrize()} {
		l := CC(in)
		for i := range want {
			if l[i] != want[i] {
				t.Fatalf("CC = %v, want %v", l, want)
			}
		}
	}
}

func TestPageRankWellFormed(t *testing.T) {
	g := graph.GenRMAT("r", 10, 8, graph.DefaultRMAT, 1, 3)
	n := g.NumVertices()
	r := PageRank(g, 0.85, 10)
	indeg := make([]int64, n)
	for _, d := range g.Dst {
		indeg[d]++
	}
	maxIn, maxV := int64(-1), 0
	for v := 0; v < n; v++ {
		if r[v] <= 0 || math.IsNaN(r[v]) || math.IsInf(r[v], 0) || r[v] > 1 {
			t.Fatalf("rank[%d] = %v out of (0,1]", v, r[v])
		}
		if indeg[v] > maxIn {
			maxIn, maxV = indeg[v], v
		}
	}
	// The biggest hub must outrank any vertex with no in-edges (message-
	// driven semantics: such vertices keep their initial 1/N forever).
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			if r[maxV] <= r[v] {
				t.Fatalf("hub rank %v not above sourceless rank %v", r[maxV], r[v])
			}
			if r[v] != 1.0/float64(n) {
				t.Fatalf("sourceless vertex changed rank: %v", r[v])
			}
			break
		}
	}
}

func TestPageRankStar(t *testing.T) {
	// Star: 1,2,3 -> 0. After one iteration, rank(0) = 0.15/4 + 0.85*3/4.
	g := graph.FromEdges("star", 4, []graph.Edge{
		{Src: 1, Dst: 0, Weight: 1}, {Src: 2, Dst: 0, Weight: 1}, {Src: 3, Dst: 0, Weight: 1},
	})
	r := PageRank(g, 0.85, 1)
	want := 0.15/4 + 0.85*(3.0/4.0)
	if math.Abs(r[0]-want) > 1e-12 {
		t.Fatalf("rank[0] = %v, want %v", r[0], want)
	}
	// Spokes receive nothing: rank unchanged.
	if r[1] != 0.25 {
		t.Fatalf("rank[1] = %v, want 0.25 (no in-edges, keeps initial)", r[1])
	}
}

func TestBCDiamond(t *testing.T) {
	// Unweighted diamond: two shortest paths 0->3 (via 1 and 2).
	g := graph.FromEdges("d", 5, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 0, Dst: 2, Weight: 1},
		{Src: 1, Dst: 3, Weight: 1}, {Src: 2, Dst: 3, Weight: 1},
		{Src: 3, Dst: 4, Weight: 1},
	})
	d := BC(g, 0)
	// δ(3) = 1 (only 4 depends on it), δ(1) = δ(2) = σ/σ·(1+δ(3))/2 = 1,
	// since σ(1)=σ(2)=1, σ(3)=2: δ(1) = 1/2·(1+1) = 1.
	want := []float64{0, 1, 1, 1, 0}
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-12 {
			t.Fatalf("BC = %v, want %v", d, want)
		}
	}
}

func TestBCPathSum(t *testing.T) {
	// On a simple path 0->1->2->3, δ(1)=2, δ(2)=1.
	g := graph.FromEdges("p", 4, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}, {Src: 2, Dst: 3, Weight: 1},
	})
	d := BC(g, 0)
	want := []float64{0, 2, 1, 0}
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-12 {
			t.Fatalf("BC = %v, want %v", d, want)
		}
	}
}

func TestSequentialEdges(t *testing.T) {
	g := diamond()
	if got := SequentialEdges(g, 0, "bfs", 0); got != 5 {
		t.Fatalf("bfs sequential edges = %d, want 5", got)
	}
	if got := SequentialEdges(g, 0, "cc", 0); got != 5 {
		t.Fatalf("cc sequential edges = %d, want 5", got)
	}
	if got := SequentialEdges(g, 0, "pr", 10); got != 50 {
		t.Fatalf("pr sequential edges = %d, want 50", got)
	}
	if got := SequentialEdges(g, 0, "bc", 0); got != 10 {
		t.Fatalf("bc sequential edges = %d, want 10", got)
	}
	// From a leaf, only its own out-edges count.
	if got := SequentialEdges(g, 4, "bfs", 0); got != 0 {
		t.Fatalf("bfs from sink = %d, want 0", got)
	}
}
