package nova_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"nova"
	"nova/graph"
	"nova/internal/harness"
	"nova/internal/ref"
	"nova/program"
)

func smallConfig() nova.Config {
	cfg := nova.DefaultConfig()
	cfg.PEsPerGPN = 2
	cfg.GPNs = 2
	cfg.CacheBytesPerPE = 4 << 10
	cfg.SuperblockDim = 16
	cfg.ActiveBufferEntries = 16
	return cfg
}

func testGraph() *graph.CSR {
	return graph.GenRMAT("t", 9, 10, graph.DefaultRMAT, 16, 3)
}

func TestAcceleratorBFSReport(t *testing.T) {
	g := testGraph()
	root := g.LargestOutDegreeVertex()
	acc, err := nova.New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := acc.RunContext(context.Background(), program.NewBFS(root), g)
	if err != nil {
		t.Fatal(err)
	}
	if err := nova.Verify("bfs", g, root, rep.Props); err != nil {
		t.Fatal(err)
	}
	if rep.GTEPS(g) <= 0 {
		t.Fatal("no throughput reported")
	}
	if rep.Cycles == 0 || rep.Stats.SimSeconds <= 0 {
		t.Fatalf("report timing empty: %+v", rep.Stats)
	}
	if u := rep.Metric(nova.MetricEdgeUtilization); u <= 0 || u > 1.01 {
		t.Fatalf("edge utilization %v", u)
	}
}

func TestConfigErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*nova.Config)
	}{
		{"bad spill", func(c *nova.Config) { c.Spill = "magic" }},
		{"bad fabric", func(c *nova.Config) { c.Fabric = "telepathy" }},
		{"bad mapping", func(c *nova.Config) { c.Mapping = "vibes" }},
		{"0 GPNs", func(c *nova.Config) { c.GPNs = 0 }},
		{"negative PEsPerGPN", func(c *nova.Config) { c.PEsPerGPN = -3 }},
		{"negative CacheBytesPerPE", func(c *nova.Config) { c.CacheBytesPerPE = -1 }},
		{"negative SuperblockDim", func(c *nova.Config) { c.SuperblockDim = -1 }},
		{"negative ActiveBufferEntries", func(c *nova.Config) { c.ActiveBufferEntries = -1 }},
		{"negative CoalesceWindow", func(c *nova.Config) { c.CoalesceWindow = -1 }},
		{"SSDPreset without OutOfCore", func(c *nova.Config) { c.SSDPreset = "sata" }},
		{"negative SSDResidentPages", func(c *nova.Config) { c.OutOfCore, c.SSDResidentPages = true, -1 }},
	} {
		bad := smallConfig()
		c.edit(&bad)
		if _, err := nova.New(bad); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	for _, em := range []nova.ExternalMemory{{RAMBytes: -1}, {PartitionEdges: -1}, {SSDPreset: "floppy"}} {
		if err := em.Validate(); err == nil {
			t.Errorf("extmem %+v accepted", em)
		}
	}
}

func TestAllMappingsCorrect(t *testing.T) {
	g := testGraph()
	root := g.LargestOutDegreeVertex()
	for _, mapping := range []string{"random", "interleave", "load-balanced", "locality"} {
		cfg := smallConfig()
		cfg.Mapping = mapping
		acc, err := nova.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := acc.RunContext(context.Background(), program.NewBFS(root), g)
		if err != nil {
			t.Fatalf("%s: %v", mapping, err)
		}
		if err := nova.Verify("bfs", g, root, rep.Props); err != nil {
			t.Fatalf("%s: %v", mapping, err)
		}
	}
}

func TestRunWorkloadAllFiveOnAllEngines(t *testing.T) {
	g := testGraph()
	root := g.LargestOutDegreeVertex()
	acc, err := nova.New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	pg := &nova.PolyGraphBaseline{ForceSlices: 3}
	engines := map[string]harness.Engine{"nova": acc.Engine(), "polygraph": pg.Engine()}

	for engName, eng := range engines {
		for _, w := range nova.WorkloadNames {
			gw := g
			if w == "cc" {
				gw = g.Symmetrize()
			}
			out, err := eng.RunWorkload(context.Background(), harness.Workload{Name: w, G: gw, Root: root, PRIters: 5})
			if err != nil {
				t.Fatalf("%s/%s: %v", engName, w, err)
			}
			if out.Stats.SimSeconds <= 0 {
				t.Fatalf("%s/%s: no simulated time", engName, w)
			}
			// BC's denominator counts forward edges twice, while the
			// backward pass walks in-edges, so its ratio can exceed 1
			// slightly.
			weMax := 1.01
			if w == "bc" {
				weMax = 1.5
			}
			if we := out.WorkEfficiency(); we <= 0 || we > weMax {
				t.Fatalf("%s/%s: work efficiency %v", engName, w, we)
			}
			if out.EffectiveGTEPS() <= 0 {
				t.Fatalf("%s/%s: no throughput", engName, w)
			}
		}
	}
}

func TestEnginesAgreeOnResults(t *testing.T) {
	// NOVA and PolyGraph are different machines but must compute the
	// same answers.
	g := testGraph()
	root := g.LargestOutDegreeVertex()
	acc, _ := nova.New(smallConfig())
	pg := &nova.PolyGraphBaseline{ForceSlices: 4}
	w := harness.Workload{Name: "sssp", G: g, Root: root}
	a, err := acc.Engine().RunWorkload(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pg.Engine().RunWorkload(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Props {
		if a.Props[v] != b.Props[v] {
			t.Fatalf("engines disagree at vertex %d: %d vs %d", v, a.Props[v], b.Props[v])
		}
	}
}

func TestSoftwareBaseline(t *testing.T) {
	g := testGraph()
	root := g.LargestOutDegreeVertex()
	sw := (&nova.Software{Threads: 2}).Engine()
	for _, w := range nova.WorkloadNames {
		gw := g
		if w == "cc" {
			gw = g.Symmetrize()
		}
		rep, err := sw.RunWorkload(context.Background(), harness.Workload{Name: w, G: gw, Root: root, PRIters: 5})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if rep.Stats.SimSeconds <= 0 {
			t.Fatalf("%s: no wall time", w)
		}
	}
	// Correctness spot-check: the distances, with program.Inf for -1.
	rep, err := sw.RunWorkload(context.Background(), harness.Workload{Name: "bfs", G: g, Root: root})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.BFS(g, root)
	for v := range want {
		got := int64(rep.Props[v])
		if rep.Props[v] == program.Inf {
			got = -1
		}
		if got != want[v] {
			t.Fatalf("software BFS wrong at %d", v)
		}
	}
	if _, err := sw.RunWorkload(context.Background(), harness.Workload{Name: "nope", G: g, Root: root}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestBCOutcomeMatchesOracle(t *testing.T) {
	g := testGraph()
	root := g.LargestOutDegreeVertex()
	acc, _ := nova.New(smallConfig())
	out, err := acc.Engine().RunWorkload(context.Background(), harness.Workload{Name: "bc", G: g, Root: root})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.BC(g, root)
	for v := range want {
		tol := 1e-3 * (1 + math.Abs(want[v]))
		if math.Abs(out.Scores[v]-want[v]) > tol {
			t.Fatalf("BC at %d: %v want %v", v, out.Scores[v], want[v])
		}
	}
}

func TestSequentialEdgesExposed(t *testing.T) {
	g := testGraph()
	root := g.LargestOutDegreeVertex()
	if nova.SequentialEdges(g, root, "bfs", 0) <= 0 {
		t.Fatal("no sequential edges for bfs")
	}
	if nova.SequentialEdges(g, root, "pr", 10) != 10*g.NumEdges() {
		t.Fatal("pr sequential edges wrong")
	}
}

func TestVerifyRejectsWrongProps(t *testing.T) {
	g := testGraph()
	root := g.LargestOutDegreeVertex()
	props := make([]program.Prop, g.NumVertices())
	if err := nova.Verify("bfs", g, root, props); err == nil {
		t.Fatal("all-zero properties verified as BFS output")
	}
	if err := nova.Verify("pagerank??", g, root, props); err == nil {
		t.Fatal("unknown workload verified")
	}
}

func TestRunTracedProducesValidTrace(t *testing.T) {
	g := testGraph()
	acc, err := nova.New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep, err := acc.RunTraced(context.Background(), harness.Workload{Name: "bfs", G: g, Root: g.LargestOutDegreeVertex()}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.SimSeconds <= 0 {
		t.Fatal("no simulated time")
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("trace is empty")
	}
	cats := map[string]bool{}
	for _, e := range parsed.TraceEvents {
		if c, ok := e["cat"].(string); ok {
			cats[c] = true
		}
	}
	for _, want := range []string{"mgu", "vmu"} {
		if !cats[want] {
			t.Fatalf("trace missing %q events (got %v)", want, cats)
		}
	}
	if _, err := acc.RunTraced(context.Background(), harness.Workload{Name: "bc", G: g}, &buf); err == nil {
		t.Fatal("two-phase bc traced onto one timeline")
	}
}

func TestFacadeDeterminism(t *testing.T) {
	run := func() *nova.Report {
		g := testGraph()
		acc, err := nova.New(smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := acc.RunContext(context.Background(), program.NewSSSP(g.LargestOutDegreeVertex()), g)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles ||
		a.Stats.EdgesTraversed != b.Stats.EdgesTraversed ||
		a.Stats.MessagesCoalesced != b.Stats.MessagesCoalesced ||
		a.Metric(nova.MetricNetworkBytes) != b.Metric(nova.MetricNetworkBytes) {
		t.Fatalf("facade runs diverge: %+v vs %+v", a.Stats, b.Stats)
	}
}

func TestReportLoadImbalancePopulated(t *testing.T) {
	g := testGraph()
	acc, _ := nova.New(smallConfig())
	rep, err := acc.RunContext(context.Background(), program.NewBFS(g.LargestOutDegreeVertex()), g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LoadImbalance < 1 {
		t.Fatalf("load imbalance %v < 1", rep.LoadImbalance)
	}
}

// TestRejectsRemovedTopologies: the crossbar is the only inter-GPN
// topology, so New accepts "" and "crossbar" and names the removed ring,
// mesh and torus fabrics for anything else.
func TestRejectsRemovedTopologies(t *testing.T) {
	for _, topo := range []string{"", "crossbar"} {
		cfg := nova.DefaultConfig()
		cfg.Topology = topo
		if _, err := nova.New(cfg); err != nil {
			t.Errorf("Topology %q: %v", topo, err)
		}
	}
	cfg := nova.DefaultConfig()
	cfg.Topology = "ring"
	_, err := nova.New(cfg)
	if err == nil || !strings.Contains(err.Error(), "ring, mesh and torus were removed") {
		t.Errorf(`Topology "ring": error %v, want one naming the removed ring, mesh and torus`, err)
	}
}
