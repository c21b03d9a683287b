package nova

import (
	"context"

	"testing"

	"nova/graph"
	"nova/internal/harness"
)

// TestTierThreadsThroughEngines verifies the scale-tier label travels
// Workload → Report unchanged on every adapter, and that a large-tier
// style configuration (shrunken active buffers) actually drives the spill
// path — the report-level view of the internal/core spill-coverage tests.
func TestTierThreadsThroughEngines(t *testing.T) {
	g := graph.FromStream(graph.NewRMATStream("tier", 2048, 8, graph.DefaultRMAT, 16, 4))
	root := g.LargestOutDegreeVertex()

	cfg := DefaultConfig()
	cfg.CacheBytesPerPE = 1 << 10
	cfg.ActiveBufferEntries = 16 // the large-tier sizing
	acc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	engines := []harness.Engine{
		acc.Engine(),
		(&PolyGraphBaseline{OnChipBytes: 4096}).Engine(),
		(&Software{Threads: 1}).Engine(),
	}
	for _, e := range engines {
		rep, err := e.RunWorkload(context.Background(), harness.Workload{Name: "bfs", G: g, Root: root, Tier: "large"})
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if rep.Tier != "large" {
			t.Errorf("%s: report tier %q, want %q", e.Name(), rep.Tier, "large")
		}
	}

	// On the shrunken buffers the NOVA run must have spilled and recovered.
	rep, err := acc.Engine().RunWorkload(context.Background(), harness.Workload{Name: "sssp", G: g, Root: root, Tier: "large"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metric("spills") == 0 {
		t.Error("large-tier buffers never overflowed: spills = 0")
	}
	if rep.Metric("recovery_hit_rate") <= 0 {
		t.Errorf("recovery_hit_rate = %v, want > 0", rep.Metric("recovery_hit_rate"))
	}
}

// TestSpillStressWorkload runs the prdelta spill-stress workload through
// the NOVA engine's harness adapter.
func TestSpillStressWorkload(t *testing.T) {
	g := graph.FromStream(graph.NewUniformStream("stress", 1024, 8, 8, 9))
	cfg := DefaultConfig()
	cfg.ActiveBufferEntries = 16
	acc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := acc.Engine().RunWorkload(context.Background(), harness.Workload{Name: SpillStressWorkload, G: g, Root: g.LargestOutDegreeVertex()})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.EdgesTraversed == 0 {
		t.Fatal("prdelta traversed no edges")
	}
	if out.SequentialEdges != g.NumEdges() {
		t.Fatalf("prdelta sequential-edge anchor = %d, want |E| = %d",
			out.SequentialEdges, g.NumEdges())
	}
}
