// Ablation benchmarks: isolate the design choices behind NOVA's headline
// results, beyond the paper's own figures. Each reports the simulated
// execution time (sim-us) and the design-relevant counter as benchmark
// metrics.
package nova_test

import (
	"context"
	"strconv"
	"testing"

	"nova"
	"nova/graph"
	"nova/internal/exp"
	"nova/program"
)

func ablationGraph(b *testing.B) (*graph.CSR, graph.VertexID) {
	b.Helper()
	d, err := exp.DatasetByName(exp.Small, "twitter")
	if err != nil {
		b.Fatal(err)
	}
	return d.Graph, d.Root
}

func runAblation(b *testing.B, cfg nova.Config, p func(root graph.VertexID) program.Program) *nova.Report {
	b.Helper()
	g, root := ablationGraph(b)
	var rep *nova.Report
	for i := 0; i < b.N; i++ {
		acc, err := nova.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rep, err = acc.RunContext(context.Background(), p(root), g)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Stats.SimSeconds*1e6, "sim-us")
	return rep
}

// BenchmarkAblationSpillOverwrite vs ...SpillFIFO: Table I's trade-off as
// an end-to-end ablation (identical machine, different VMU policy).
func BenchmarkAblationSpillOverwrite(b *testing.B) {
	cfg := exp.NOVAConfig(exp.Small, nova.DefaultConfig(), 1)
	cfg.Spill = "overwrite"
	rep := runAblation(b, cfg, func(r graph.VertexID) program.Program { return program.NewSSSP(r) })
	b.ReportMetric(rep.Metric(nova.MetricSpillWrites), "spill-writes")
}

func BenchmarkAblationSpillFIFO(b *testing.B) {
	cfg := exp.NOVAConfig(exp.Small, nova.DefaultConfig(), 1)
	cfg.Spill = "fifo"
	rep := runAblation(b, cfg, func(r graph.VertexID) program.Program { return program.NewSSSP(r) })
	b.ReportMetric(rep.Metric(nova.MetricSpillWrites), "spill-writes")
	b.ReportMetric(rep.Metric(nova.MetricStaleRetrievals), "stale")
}

// BenchmarkAblationAsyncBFS vs ...SyncBFS: the same workload under both
// execution models NOVA supports (Section III-A).
func BenchmarkAblationAsyncBFS(b *testing.B) {
	rep := runAblation(b, exp.NOVAConfig(exp.Small, nova.DefaultConfig(), 1),
		func(r graph.VertexID) program.Program { return program.NewBFS(r) })
	b.ReportMetric(float64(rep.Stats.EdgesTraversed), "edges")
}

func BenchmarkAblationSyncBFS(b *testing.B) {
	rep := runAblation(b, exp.NOVAConfig(exp.Small, nova.DefaultConfig(), 1),
		func(r graph.VertexID) program.Program { return program.Synchronous(program.NewBFS(r)) })
	b.ReportMetric(float64(rep.Stats.EdgesTraversed), "edges")
	b.ReportMetric(float64(rep.Stats.Epochs), "epochs")
}

// BenchmarkAblationBufferDepth sweeps the active-buffer size around the
// paper's 80-entry choice ("bigger than 80 entries has diminishing
// returns").
func BenchmarkAblationBufferDepth(b *testing.B) {
	for _, entries := range []int{16, 40, 80, 160, 320} {
		b.Run(benchName("entries", entries), func(b *testing.B) {
			cfg := exp.NOVAConfig(exp.Small, nova.DefaultConfig(), 1)
			cfg.ActiveBufferEntries = entries
			runAblation(b, cfg, func(r graph.VertexID) program.Program { return program.NewBFS(r) })
		})
	}
}

// BenchmarkAblationSuperblockDim sweeps the tracker granularity
// (Section VI-C2's 32/64/128/256 plus extremes).
func BenchmarkAblationSuperblockDim(b *testing.B) {
	for _, dim := range []int{8, 32, 128, 512} {
		b.Run(benchName("dim", dim), func(b *testing.B) {
			cfg := exp.NOVAConfig(exp.Small, nova.DefaultConfig(), 1)
			cfg.SuperblockDim = dim
			rep := runAblation(b, cfg, func(r graph.VertexID) program.Program { return program.NewBFS(r) })
			b.ReportMetric(100*rep.Metric(nova.MetricVertexWastefulFrac), "waste-pct")
		})
	}
}

func benchName(k string, v int) string {
	return k + "=" + strconv.Itoa(v)
}

// BenchmarkAblationPRDeltaVsBSP contrasts asynchronous delta-accumulative
// PageRank with the BSP PageRank the paper chose (Section V: PR-delta is
// too sensitive to traversal order). Compare edges and sim-us across the
// two to see why.
func BenchmarkAblationPRDeltaVsBSP(b *testing.B) {
	b.Run("pr-delta-async", func(b *testing.B) {
		rep := runAblation(b, exp.NOVAConfig(exp.Small, nova.DefaultConfig(), 1),
			func(r graph.VertexID) program.Program { return program.NewPRDelta(0.85, 1e-5) })
		b.ReportMetric(float64(rep.Stats.EdgesTraversed), "edges")
	})
	b.Run("pr-bsp-10iter", func(b *testing.B) {
		rep := runAblation(b, exp.NOVAConfig(exp.Small, nova.DefaultConfig(), 1),
			func(r graph.VertexID) program.Program { return program.NewPageRank(0.85, 10) })
		b.ReportMetric(float64(rep.Stats.EdgesTraversed), "edges")
	})
}
