package nova_test

import (
	"context"

	"strings"
	"testing"

	"nova"
	"nova/internal/harness"
	"nova/program"
)

// TestVerifyShortPropsReturnsError is the regression test for the
// Verify length guard: a short (or long) props slice must produce an
// error, not an index-out-of-range panic.
func TestVerifyShortPropsReturnsError(t *testing.T) {
	g := testGraph()
	root := g.LargestOutDegreeVertex()
	short := make([]program.Prop, g.NumVertices()/2)
	if err := nova.Verify("bfs", g, root, short); err == nil {
		t.Fatal("short props slice accepted")
	} else if !strings.Contains(err.Error(), "properties") {
		t.Fatalf("unexpected error: %v", err)
	}
	long := make([]program.Prop, g.NumVertices()+1)
	if err := nova.Verify("bfs", g, root, long); err == nil {
		t.Fatal("long props slice accepted")
	}
	if err := nova.Verify("bfs", g, root, nil); err == nil {
		t.Fatal("nil props slice accepted")
	}
}

// TestEngineAdapters runs one workload through each harness adapter and
// checks names, fingerprints, stats, and the backend stats dumps.
func TestEngineAdapters(t *testing.T) {
	g := testGraph()
	root := g.LargestOutDegreeVertex()
	w := harness.Workload{Name: "bfs", G: g, Root: root}

	acc, err := nova.New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	pg := &nova.PolyGraphBaseline{OnChipBytes: 1 << 12}
	sw := &nova.Software{Threads: 2}
	em := &nova.ExternalMemory{RAMBytes: 4 << 10, PartitionEdges: 64}

	engines := []harness.Engine{acc.Engine(), pg.Engine(), sw.Engine(), em.Engine()}
	names := []string{"nova", "polygraph", "ligra", "extmem"}
	metricKeys := []string{"cache_hit_rate", "slice_count", "iterations", "partition_loads"}
	for i, eng := range engines {
		if eng.Name() != names[i] {
			t.Fatalf("engine %d name = %q, want %q", i, eng.Name(), names[i])
		}
		if fp := eng.Fingerprint(); !strings.HasPrefix(fp, names[i]+"{") {
			t.Fatalf("%s fingerprint %q lacks the engine prefix", names[i], fp)
		}
		rep, err := eng.RunWorkload(context.Background(), w)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		if rep.Engine != names[i] || rep.Workload != "bfs" {
			t.Fatalf("%s report mislabeled: %+v", names[i], rep)
		}
		if rep.Stats.SimSeconds <= 0 || rep.Stats.EdgesTraversed <= 0 {
			t.Fatalf("%s: empty stats %+v", names[i], rep.Stats)
		}
		if rep.SequentialEdges <= 0 {
			t.Fatalf("%s: no work-efficiency denominator", names[i])
		}
		if rep.EffectiveGTEPS() <= 0 {
			t.Fatalf("%s: no throughput", names[i])
		}
		if _, ok := rep.Dump.Value(metricKeys[i]); !ok {
			t.Fatalf("%s: stats dump missing %q", names[i], metricKeys[i])
		}
		// All three backends compute correct BFS distances; the ligra
		// adapter converts -1 sentinels to program.Inf on the way.
		if err := nova.Verify("bfs", g, root, rep.Props); err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
	}
}

// TestEngineAdapterMatchesDirectRun pins the adapter to the native API:
// same config, same workload, same simulated time and traversal counts.
func TestEngineAdapterMatchesDirectRun(t *testing.T) {
	g := testGraph()
	root := g.LargestOutDegreeVertex()
	acc, err := nova.New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := acc.RunContext(context.Background(), program.NewBFS(root), g)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := acc.Engine().RunWorkload(context.Background(), harness.Workload{Name: "bfs", G: g, Root: root})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats != direct.Stats {
		t.Fatalf("adapter stats %+v != direct stats %+v", rep.Stats, direct.Stats)
	}
	if rep.Metric("cycles") != float64(direct.Cycles) {
		t.Fatalf("adapter cycles %v != direct %d", rep.Metric("cycles"), direct.Cycles)
	}
}

// TestEngineAdapterBC exercises the two-phase workload path, which
// reports stats without a backend stats dump.
func TestEngineAdapterBC(t *testing.T) {
	g := testGraph()
	root := g.LargestOutDegreeVertex()
	acc, err := nova.New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := acc.Engine().RunWorkload(context.Background(), harness.Workload{Name: "bc", G: g, Root: root})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scores == nil || rep.Stats.SimSeconds <= 0 {
		t.Fatalf("bc adapter run incomplete: %+v", rep)
	}
	if _, err := acc.Engine().RunWorkload(context.Background(), harness.Workload{Name: "nope", G: g, Root: root}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
