package program_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nova/graph"
	"nova/internal/ref"
	"nova/program"
)

func randGraph(seed int64, n, m int) *graph.CSR {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{
			Src:    graph.VertexID(rng.Intn(n)),
			Dst:    graph.VertexID(rng.Intn(n)),
			Weight: uint32(1 + rng.Intn(8)),
		}
	}
	return graph.FromEdges("rand", n, edges)
}

func propsAsDist(props []program.Prop) []int64 {
	out := make([]int64, len(props))
	for i, p := range props {
		if p == program.Inf {
			out[i] = ref.Unreached
		} else {
			out[i] = int64(p)
		}
	}
	return out
}

func TestExecBFSMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		g := randGraph(seed, 40, 150)
		root := g.LargestOutDegreeVertex()
		props, stats := program.Exec(program.NewBFS(root), g)
		want := ref.BFS(g, root)
		got := propsAsDist(props)
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return stats.EdgesTraversed > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestExecSSSPMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		g := randGraph(seed, 40, 150)
		root := g.LargestOutDegreeVertex()
		props, _ := program.Exec(program.NewSSSP(root), g)
		want := ref.SSSP(g, root)
		got := propsAsDist(props)
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestExecCCMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		g := randGraph(seed, 40, 80).Symmetrize()
		props, _ := program.Exec(program.NewCC(), g)
		want := ref.CC(g)
		for v := range want {
			if int64(props[v]) != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestExecPageRankMatchesOracle(t *testing.T) {
	g := graph.GenRMAT("r", 9, 8, graph.DefaultRMAT, 1, 5)
	props, stats := program.Exec(program.NewPageRank(0.85, 10), g)
	want := ref.PageRank(g, 0.85, 10)
	for v := range want {
		if math.Abs(props[v].Float()-want[v]) > 1e-9 {
			t.Fatalf("vertex %d: rank %v, want %v", v, props[v].Float(), want[v])
		}
	}
	if stats.Epochs != 10 {
		t.Fatalf("epochs = %d, want 10", stats.Epochs)
	}
}

func TestExecBCMatchesBrandes(t *testing.T) {
	f := func(seed int64) bool {
		g := randGraph(seed, 30, 90)
		gT := g.Transpose()
		root := g.LargestOutDegreeVertex()
		scores, _, err := program.RunBC(execRunner{}, g, gT, root)
		if err != nil {
			return false
		}
		want := ref.BC(g, root)
		for v := range want {
			// Backward-pass contributions travel as float32; allow
			// proportional tolerance.
			tol := 1e-4 * (1 + math.Abs(want[v]))
			if math.Abs(scores[v]-want[v]) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// execRunner adapts the functional executor to the Runner interface.
type execRunner struct{}

func (execRunner) RunProgram(p program.Program, g *graph.CSR) ([]program.Prop, program.RunStats, error) {
	props, stats := program.Exec(p, g)
	return props, stats, nil
}

func TestBCForwardCountsPaths(t *testing.T) {
	// Diamond 0->{1,2}->3: σ(3) must be 2.
	g := graph.FromEdges("d", 4, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 0, Dst: 2, Weight: 1},
		{Src: 1, Dst: 3, Weight: 1}, {Src: 2, Dst: 3, Weight: 1},
	})
	props, _ := program.Exec(program.NewBCForward(0), g)
	sig := program.BCSigmas(props)
	dep := program.BCDepths(props)
	if sig[3] != 2 || dep[3] != 2 {
		t.Fatalf("vertex 3: σ=%d depth=%d, want σ=2 depth=2", sig[3], dep[3])
	}
	if sig[0] != 1 || dep[0] != 0 {
		t.Fatalf("root: σ=%d depth=%d", sig[0], dep[0])
	}
}

func TestStatsMetrics(t *testing.T) {
	s := program.RunStats{SimSeconds: 2, EdgesTraversed: 4e9}
	if got := s.TEPS(); got != 2e9 {
		t.Fatalf("TEPS = %v", got)
	}
	if got := s.EffectiveGTEPS(2e9); got != 1.0 {
		t.Fatalf("EffectiveGTEPS = %v", got)
	}
	if got := s.WorkEfficiency(2e9); got != 0.5 {
		t.Fatalf("WorkEfficiency = %v", got)
	}
	// A run that traversed no edge is efficient only when none was
	// needed; a stop before the first of ten needed edges scores 0.
	var zero program.RunStats
	if zero.TEPS() != 0 || zero.WorkEfficiency(10) != 0 || zero.WorkEfficiency(0) != 1 {
		t.Fatal("zero-stats metrics wrong")
	}
}

func TestPropFloatRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) {
			return true
		}
		return program.FromFloat(x).Float() == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoalescingCounted(t *testing.T) {
	// Star into vertex 0 from a chain start: many updates to the same
	// pending vertex should register as coalesced in async mode.
	edges := []graph.Edge{}
	for i := 1; i <= 10; i++ {
		edges = append(edges, graph.Edge{Src: 11, Dst: graph.VertexID(i), Weight: 1})
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: 0, Weight: uint32(20 - i)})
	}
	g := graph.FromEdges("star", 12, edges)
	_, stats := program.Exec(program.NewSSSP(11), g)
	if stats.MessagesCoalesced == 0 {
		t.Fatal("expected coalesced reductions on converging star")
	}
}
