package extmem

import (
	"context"
	"math/rand"
	"testing"

	"nova/graph"
	"nova/internal/ref"
	"nova/program"
)

func testConfig() Config {
	cfg := DefaultConfig()
	// Small budget and intervals so a 100-vertex test graph still pages.
	cfg.RAMBytes = 2 << 10
	cfg.PartitionEdges = 64
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

func TestExtmemBFSMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randGraph(seed, 120, 700)
		root := g.LargestOutDegreeVertex()
		res, err := Run(context.Background(), testConfig(), g, program.NewBFS(root))
		if err != nil {
			t.Fatal(err)
		}
		want := ref.BFS(g, root)
		got := distsOf(res.Props)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("seed %d vertex %d: got %d want %d", seed, v, got[v], want[v])
			}
		}
		if res.Metric(MetricCycles) == 0 || res.Stats.EdgesTraversed == 0 {
			t.Fatalf("seed %d: no modeled work: cycles %v, %+v", seed, res.Metric(MetricCycles), res.Stats)
		}
	}
}

func TestExtmemSSSPAndCCMatchOracle(t *testing.T) {
	g := randGraph(3, 100, 600)
	root := g.LargestOutDegreeVertex()
	res, err := Run(context.Background(), testConfig(), g, program.NewSSSP(root))
	if err != nil {
		t.Fatal(err)
	}
	want := ref.SSSP(g, root)
	got := distsOf(res.Props)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("sssp vertex %d: got %d want %d", v, got[v], want[v])
		}
	}
	gs := randGraph(5, 150, 400).Symmetrize()
	res, err = Run(context.Background(), testConfig(), gs, program.NewCC())
	if err != nil {
		t.Fatal(err)
	}
	wantCC := ref.CC(gs)
	for v := range wantCC {
		if int64(res.Props[v]) != wantCC[v] {
			t.Fatalf("cc vertex %d: label %d, want %d", v, res.Props[v], wantCC[v])
		}
	}
}

func TestExtmemPagingAccounted(t *testing.T) {
	g := randGraph(9, 200, 2000)
	root := g.LargestOutDegreeVertex()
	res, err := Run(context.Background(), testConfig(), g, program.NewBFS(root))
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Metric(MetricPartitions); n < 2 {
		t.Fatalf("expected a multi-partition schedule, got %v", n)
	}
	for _, name := range []string{MetricPartitionLoads, MetricBytesPaged, MetricIOStallTicks} {
		if res.Metric(name) == 0 {
			t.Fatalf("paging not accounted: %s = 0", name)
		}
	}
	if res.Metric(MetricEvictions) == 0 {
		t.Fatal("tiny RAM budget must evict")
	}

	// A RAM budget that holds the whole graph loads each partition once
	// and finishes no later.
	big := testConfig()
	big.RAMBytes = 1 << 30
	res2, err := Run(context.Background(), big, g, program.NewBFS(root))
	if err != nil {
		t.Fatal(err)
	}
	if loads, parts := res2.Metric(MetricPartitionLoads), res2.Metric(MetricPartitions); loads != parts {
		t.Fatalf("all-resident run loaded %v partitions, want %v", loads, parts)
	}
	if res2.Metric(MetricCycles) > res.Metric(MetricCycles) {
		t.Fatalf("bigger cache slower: %v > %v", res2.Metric(MetricCycles), res.Metric(MetricCycles))
	}
}

func TestExtmemDeterministic(t *testing.T) {
	g := randGraph(13, 150, 900)
	root := g.LargestOutDegreeVertex()
	a, err := Run(context.Background(), testConfig(), g, program.NewSSSP(root))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), testConfig(), g, program.NewSSSP(root))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{MetricCycles, MetricPartitionLoads, MetricBytesPaged} {
		if a.Metric(key) != b.Metric(key) {
			t.Fatalf("runs diverged: %s %v vs %v", key, a.Metric(key), b.Metric(key))
		}
	}
}

func TestExtmemRejectsBSP(t *testing.T) {
	g := randGraph(1, 50, 200)
	if _, err := Run(context.Background(), testConfig(), g, program.NewPageRank(0.85, 5)); err == nil {
		t.Fatal("BSP program accepted")
	}
}

func TestExtmemCancellation(t *testing.T) {
	g := randGraph(2, 200, 2000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, testConfig(), g, program.NewBFS(g.LargestOutDegreeVertex()))
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if res == nil || !res.Partial || res.StopReason == "" {
		t.Fatalf("cancelled run did not salvage a partial report: %v", res)
	}
}
