package polygraph

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nova/graph"
	"nova/internal/ref"
	"nova/program"
)

func testConfig(slices int) Config {
	cfg := DefaultConfig()
	cfg.ForceSlices = slices
	return cfg
}

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

func distsOf(props []program.Prop) []int64 {
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

func TestSliceCountMatchesTableIII(t *testing.T) {
	// The paper's Table III: with 32 MiB on-chip memory and 4 B per
	// vertex: RoadUSA (23.9M) → 3, Twitter (41.65M) → 5,
	// Friendster (65.6M) → 8, Host (101M) → 13, Urand (134.2M) → 16.
	cfg := DefaultConfig()
	cases := []struct {
		vertices int
		want     int
	}{
		{23_900_000, 3},
		{41_650_000, 5},
		{65_600_000, 8},
		{101_000_000, 13},
		{134_200_000, 16},
	}
	for _, c := range cases {
		if got := cfg.SliceCount(c.vertices); got != c.want {
			t.Errorf("SliceCount(%d) = %d, want %d", c.vertices, got, c.want)
		}
	}
	if got := cfg.SliceCount(100); got != 1 {
		t.Errorf("tiny graph slices = %d, want 1", got)
	}
}

func TestPGBFSMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		g := randGraph(seed, 200, 1000)
		root := g.LargestOutDegreeVertex()
		res, err := Run(context.Background(), testConfig(4), g, program.NewBFS(root))
		if err != nil {
			return false
		}
		want := ref.BFS(g, root)
		got := distsOf(res.Props)
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPGSSSPMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		g := randGraph(seed, 150, 900)
		root := g.LargestOutDegreeVertex()
		res, err := Run(context.Background(), testConfig(3), g, program.NewSSSP(root))
		if err != nil {
			return false
		}
		want := ref.SSSP(g, root)
		got := distsOf(res.Props)
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPGCCMatchesOracle(t *testing.T) {
	g := randGraph(3, 200, 600).Symmetrize()
	res, err := Run(context.Background(), testConfig(5), g, program.NewCC())
	if err != nil {
		t.Fatal(err)
	}
	want := ref.CC(g)
	for v := range want {
		if int64(res.Props[v]) != want[v] {
			t.Fatalf("vertex %d: label %d, want %d", v, res.Props[v], want[v])
		}
	}
}

func TestPGPageRankMatchesOracle(t *testing.T) {
	g := graph.GenRMAT("r", 9, 8, graph.DefaultRMAT, 1, 5)
	res, err := Run(context.Background(), testConfig(4), g, program.NewPageRank(0.85, 5))
	if err != nil {
		t.Fatal(err)
	}
	want := ref.PageRank(g, 0.85, 5)
	for v := range want {
		if math.Abs(res.Props[v].Float()-want[v]) > 1e-9 {
			t.Fatalf("vertex %d: rank %v, want %v", v, res.Props[v].Float(), want[v])
		}
	}
	if res.Stats.Epochs != 5 {
		t.Fatalf("epochs = %d", res.Stats.Epochs)
	}
}

type pgRunner struct{ cfg Config }

func (r pgRunner) RunProgram(p program.Program, g *graph.CSR) ([]program.Prop, program.RunStats, error) {
	res, err := Run(context.Background(), r.cfg, g, p)
	if err != nil {
		return nil, program.RunStats{}, err
	}
	return res.Props, res.Stats, nil
}

func TestPGBCMatchesBrandes(t *testing.T) {
	g := randGraph(9, 100, 400)
	gT := g.Transpose()
	root := g.LargestOutDegreeVertex()
	scores, _, err := program.RunBC(pgRunner{testConfig(3)}, g, gT, root)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.BC(g, root)
	for v := range want {
		tol := 1e-3 * (1 + math.Abs(want[v]))
		if math.Abs(scores[v]-want[v]) > tol {
			t.Fatalf("vertex %d: δ %v, want %v", v, scores[v], want[v])
		}
	}
}

func TestNonSlicedHasNoSwitching(t *testing.T) {
	g := randGraph(5, 300, 2000)
	res, err := Run(context.Background(), testConfig(1), g, program.NewBFS(g.LargestOutDegreeVertex()))
	if err != nil {
		t.Fatal(err)
	}
	if sw := res.Metric(MetricSwitchingSeconds); sw != 0 {
		t.Fatalf("non-sliced run charged %v switching seconds", sw)
	}
	if in := res.Metric(MetricInefficiencySeconds); in != 0 {
		t.Fatalf("non-sliced run charged %v inefficiency", in)
	}
	if res.Metric(MetricProcessingSeconds) <= 0 {
		t.Fatal("no processing time")
	}
}

func TestOverheadGrowsWithSliceCount(t *testing.T) {
	// Fig. 2's core claim: slicing overhead (switching + inefficiency)
	// grows with the number of slices for the same graph and workload.
	g := graph.GenRMAT("r", 12, 12, graph.DefaultRMAT, 1, 7)
	root := g.LargestOutDegreeVertex()
	overheadShare := func(slices int) float64 {
		res, err := Run(context.Background(), testConfig(slices), g, program.NewBFS(root))
		if err != nil {
			t.Fatal(err)
		}
		tot := res.Stats.SimSeconds
		return (res.Metric(MetricSwitchingSeconds) + res.Metric(MetricInefficiencySeconds)) / tot
	}
	s2 := overheadShare(2)
	s16 := overheadShare(16)
	if s16 <= s2 {
		t.Fatalf("overhead share did not grow: %v @2 slices vs %v @16", s2, s16)
	}
}

func TestEdgeBandwidthShareShrinksWithSlices(t *testing.T) {
	g := graph.GenRMAT("r", 12, 12, graph.DefaultRMAT, 1, 7)
	root := g.LargestOutDegreeVertex()
	share := func(slices int) float64 {
		res, err := Run(context.Background(), testConfig(slices), g, program.NewBFS(root))
		if err != nil {
			t.Fatal(err)
		}
		return res.Metric(MetricEdgeBWShare)
	}
	a, b := share(1), share(16)
	if b >= a {
		t.Fatalf("edge share %v @16 slices not below %v @1", b, a)
	}
}

func TestMultiRoundInefficiency(t *testing.T) {
	// A long path spanning slices forces many passes per slice: the
	// inefficiency component must be nonzero.
	var edges []graph.Edge
	const n = 400
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1), Weight: 1})
		edges = append(edges, graph.Edge{Src: graph.VertexID(i + 1), Dst: graph.VertexID(i), Weight: 1})
	}
	g := graph.FromEdges("path", n, edges)
	res, err := Run(context.Background(), testConfig(8), g, program.NewBFS(0))
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Metric(MetricRounds); r < 2 {
		t.Fatalf("rounds = %v, want multi-round execution", r)
	}
	if passes, slices := res.Metric(MetricSlicePasses), res.Metric(MetricSliceCount); passes <= slices {
		t.Fatalf("passes %v not above slice count %v", passes, slices)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.MemBandwidth = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero bandwidth validated")
	}
	if _, err := Run(context.Background(), bad, randGraph(1, 10, 10), program.NewBFS(0)); err == nil {
		t.Fatal("Run accepted invalid config")
	}
}

func TestPGStatsSane(t *testing.T) {
	g := randGraph(8, 300, 2400)
	root := g.LargestOutDegreeVertex()
	res, err := Run(context.Background(), testConfig(6), g, program.NewSSSP(root))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SimSeconds <= 0 || res.Stats.EdgesTraversed <= 0 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	sum := res.Metric(MetricProcessingSeconds) + res.Metric(MetricSwitchingSeconds) + res.Metric(MetricInefficiencySeconds)
	if math.Abs(sum-res.Stats.SimSeconds) > 1e-12 {
		t.Fatalf("breakdown %v != total %v", sum, res.Stats.SimSeconds)
	}
	seq := ref.SequentialEdges(g, root, "sssp", 0)
	if we := res.Stats.WorkEfficiency(seq); we <= 0 || we > 1.0001 {
		t.Fatalf("work efficiency %v", we)
	}
}
