package core

import (
	"testing"

	"nova/internal/mem"
	"nova/internal/ref"
	"nova/program"
)

// oocConfig shrinks the SSD resident window so a small test graph still
// spills past it and pays page-in events.
func oocConfig() Config {
	cfg := testConfig()
	cfg.OutOfCore = true
	cfg.SSD = mem.SSDConfig{Name: "ssd", PageBytes: 256, BytesPerCycle: 0.5, FixedLatency: 500, QueueDepth: 4}
	cfg.SSDResidentPages = 2
	return cfg
}

func TestOutOfCoreBFSCorrectAndCounted(t *testing.T) {
	g := randGraph(7, 120, 700)
	root := g.LargestOutDegreeVertex()
	res := runOn(t, oocConfig(), g, program.NewBFS(root))
	want := ref.BFS(g, root)
	got := distsOf(res.Props)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: got %d want %d", v, got[v], want[v])
		}
	}
	loads, bytes := res.Metric(MetricPartitionLoads), res.Metric(MetricBytesPaged)
	if loads == 0 || bytes == 0 {
		t.Fatalf("out-of-core run paged nothing: loads=%v bytes=%v", loads, bytes)
	}
	if res.Metric(MetricIOStallTicks) == 0 {
		t.Fatal("page-ins exposed no latency")
	}

	// The same run without the SSD tier must be no slower and page nothing.
	base := runOn(t, testConfig(), g, program.NewBFS(root))
	if n := base.Metric(MetricPartitionLoads); n != 0 {
		t.Fatalf("in-core run recorded page-ins: %v", n)
	}
	if res.Metric(MetricCycles) < base.Metric(MetricCycles) {
		t.Fatalf("paged run finished earlier than in-core: %v < %v", res.Metric(MetricCycles), base.Metric(MetricCycles))
	}
}

func TestOutOfCoreDeterministic(t *testing.T) {
	g := randGraph(21, 100, 600)
	root := g.LargestOutDegreeVertex()
	a := runOn(t, oocConfig(), g, program.NewSSSP(root))
	b := runOn(t, oocConfig(), g, program.NewSSSP(root))
	for _, key := range []string{MetricCycles, MetricPartitionLoads, MetricBytesPaged, MetricIOStallTicks} {
		if a.Metric(key) != b.Metric(key) {
			t.Fatalf("out-of-core runs diverged: %s %v vs %v", key, a.Metric(key), b.Metric(key))
		}
	}
}

func TestOutOfCoreConfigValidation(t *testing.T) {
	cfg := oocConfig()
	cfg.SSDResidentPages = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero resident window accepted")
	}
	cfg = oocConfig()
	cfg.SSD.QueueDepth = 0
	if err := cfg.Validate(); err == nil {
		t.Error("invalid SSD config accepted")
	}
}
