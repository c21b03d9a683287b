package nova_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"nova"
	"nova/graph"
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

// TestVerifyCCUsesWeakComponents holds Verify's cc oracle to the weakly
// connected components of the graph it is given. On the directed graph
// {1→0, 2→0} the components are {0, 1, 2}, so the labels [0 1 2], which
// min-label propagation along out-edges alone reaches, must fail. Every
// engine's cc run as its callers run it, on the symmetrized view,
// verifies; nova's run on the directed graph itself is caught.
func TestVerifyCCUsesWeakComponents(t *testing.T) {
	g := graph.FromEdges("in-star", 3, []graph.Edge{{Src: 1, Dst: 0, Weight: 1}, {Src: 2, Dst: 0, Weight: 1}})
	if err := nova.Verify("cc", g, 0, []program.Prop{0, 1, 2}); err == nil || !strings.Contains(err.Error(), "vertex 1") {
		t.Errorf("labels [0 1 2] on {1→0, 2→0}: error %v, want one naming vertex 1", err)
	}
	if err := nova.Verify("cc", g, 0, []program.Prop{0, 0, 0}); err != nil {
		t.Errorf("labels [0 0 0] on {1→0, 2→0}: %v", err)
	}
	acc, err := nova.New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	pg := &nova.PolyGraphBaseline{OnChipBytes: 1 << 12}
	sw := &nova.Software{Threads: 2}
	em := &nova.ExternalMemory{RAMBytes: 4 << 10, PartitionEdges: 64}
	run := func(eng harness.Engine, in *graph.CSR) []program.Prop {
		rep, err := eng.RunWorkload(context.Background(), harness.Workload{Name: "cc", G: in})
		if err != nil {
			t.Fatalf("%s cc: %v", eng.Name(), err)
		}
		return rep.Props
	}
	for _, eng := range []harness.Engine{acc.Engine(), pg.Engine(), sw.Engine(), em.Engine()} {
		if err := nova.Verify("cc", g, 0, run(eng, g.Symmetrize())); err != nil {
			t.Errorf("%s cc on the symmetrized view: %v", eng.Name(), err)
		}
	}
	if err := nova.Verify("cc", g, 0, run(acc.Engine(), g)); err == nil {
		t.Error("nova cc on the directed graph, not its symmetrized view, verified")
	}
}

// TestEnginesRejectUnsupportedCells holds every adapter to the one
// declaration of which engine runs which workload: for each engine and
// each workload name, known or not, RunWorkload returns no report and an
// error wrapping ErrUnsupportedCell exactly when CheckCell's error does.
func TestEnginesRejectUnsupportedCells(t *testing.T) {
	g := graph.GenRMAT("cells", 7, 4, graph.DefaultRMAT, 16, 5)
	root := g.LargestOutDegreeVertex()
	acc, err := nova.New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	engines := []harness.Engine{
		acc.Engine(),
		(&nova.PolyGraphBaseline{OnChipBytes: 1 << 10}).Engine(),
		(&nova.Software{Threads: 1}).Engine(),
		(&nova.ExternalMemory{RAMBytes: 4 << 10, PartitionEdges: 64}).Engine(),
	}
	workloads := append(append([]string{}, nova.WorkloadNames...), nova.SpillStressWorkload, "bogus")
	for _, eng := range engines {
		for _, name := range workloads {
			checkErr := nova.CheckCell(eng.Name(), name)
			rep, err := eng.RunWorkload(context.Background(), harness.Workload{Name: name, G: g, Root: root})
			if want := errors.Is(checkErr, nova.ErrUnsupportedCell); errors.Is(err, nova.ErrUnsupportedCell) != want {
				t.Errorf("%s/%s: RunWorkload error %v, CheckCell %v", eng.Name(), name, err, checkErr)
			}
			if checkErr != nil && (rep != nil || err == nil) {
				t.Errorf("%s/%s: CheckCell rejects the cell (%v), RunWorkload returned report %v, error %v", eng.Name(), name, checkErr, rep != nil, err)
			}
			if checkErr == nil && err != nil {
				t.Errorf("%s/%s: CheckCell accepts the cell, RunWorkload failed: %v", eng.Name(), name, err)
			}
		}
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
