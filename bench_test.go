// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section. Each benchmark regenerates the corresponding
// rows/series on the scaled dataset registry (see DESIGN.md §4 for the
// experiment index and EXPERIMENTS.md for paper-vs-measured results).
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Regenerate a single figure with full output:
//
//	go run ./cmd/experiments -only fig4 -scale medium
package nova_test

import (
	"context"
	"io"
	"os"
	"strconv"
	"testing"

	"nova"
	"nova/internal/exp"
	"nova/internal/harness"
)

// benchScale escalates with -bench time budget via NOVA_BENCH_SCALE.
func benchScale(b *testing.B) exp.Scale {
	b.Helper()
	if v := os.Getenv("NOVA_BENCH_SCALE"); v != "" {
		s, err := exp.ParseScale(v)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	return exp.Small
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	scale := benchScale(b)
	runner, ok := exp.All[id]
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	// Warm the dataset cache outside the timed region.
	exp.Datasets(scale)
	// NOVA_BENCH_JOBS sets the harness worker count (default sequential,
	// so timings stay comparable with earlier baselines).
	pool := &harness.Pool{Workers: 1}
	if v := os.Getenv("NOVA_BENCH_JOBS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			b.Fatal(err)
		}
		pool.Workers = n
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := runner(context.Background(), scale, nova.DefaultConfig(), pool)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(table.Rows) == 0 {
			b.Fatalf("%s: produced no rows", id)
		}
		if i == 0 && testing.Verbose() {
			table.Render(os.Stdout)
		} else if i == 0 {
			table.Render(io.Discard)
		}
	}
}

// BenchmarkFig1_ThroughputVsGraphSize regenerates Figure 1: NOVA vs
// PolyGraph BFS throughput as the graph grows (PolyGraph decays with slice
// count; NOVA stays flat; they cross).
func BenchmarkFig1_ThroughputVsGraphSize(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFig2_SliceSwitchingOverhead regenerates Figure 2: the
// processing/switching/inefficiency breakdown of temporal partitioning as
// slices grow.
func BenchmarkFig2_SliceSwitchingOverhead(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFig4_VsStateOfTheArt regenerates Figure 4: the five workloads
// on the five graphs across NOVA, PolyGraph and Ligra, iso-bandwidth.
func BenchmarkFig4_VsStateOfTheArt(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5_Coalescing regenerates Figure 5: the share of messages
// coalesced before propagation on each engine.
func BenchmarkFig5_Coalescing(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6_TimeBreakdown regenerates Figure 6: execution-time
// attribution (NOVA overfetch vs PolyGraph slice switching).
func BenchmarkFig6_TimeBreakdown(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7_StrongScaling regenerates Figure 7: fixed graph,
// 1→8 GPNs, BFS and BC.
func BenchmarkFig7_StrongScaling(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8_WeakScaling regenerates Figure 8: RMAT doubling with the
// GPN count, BFS.
func BenchmarkFig8_WeakScaling(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9a_CacheSensitivity regenerates Figure 9a: per-PE cache
// sweep.
func BenchmarkFig9a_CacheSensitivity(b *testing.B) { runExperiment(b, "fig9a") }

// BenchmarkFig9b_MappingSensitivity regenerates Figure 9b: random vs
// load-balanced vs locality vertex placement.
func BenchmarkFig9b_MappingSensitivity(b *testing.B) { runExperiment(b, "fig9b") }

// BenchmarkFig9c_FabricSensitivity regenerates Figure 9c: hierarchical
// fabric vs ideal point-to-point.
func BenchmarkFig9c_FabricSensitivity(b *testing.B) { runExperiment(b, "fig9c") }

// BenchmarkFig10_BandwidthBreakdown regenerates Figure 10: vertex-memory
// useful/write/wasteful split across tracker sizes.
func BenchmarkFig10_BandwidthBreakdown(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkTable1_SpillPolicies regenerates Table I: overwrite-in-vertex-
// set vs off-chip FIFO spilling, measured.
func BenchmarkTable1_SpillPolicies(b *testing.B) { runExperiment(b, "tab1") }

// BenchmarkTable2_SystemSpec prints Table II: the configured system.
func BenchmarkTable2_SystemSpec(b *testing.B) { runExperiment(b, "tab2") }

// BenchmarkTable3_Datasets regenerates Table III: the dataset registry
// with slice counts.
func BenchmarkTable3_Datasets(b *testing.B) { runExperiment(b, "tab3") }

// BenchmarkTable4_TerascaleResources regenerates Table IV: WDC12 resource
// requirements for NOVA, PolyGraph and Dalorex.
func BenchmarkTable4_TerascaleResources(b *testing.B) { runExperiment(b, "tab4") }

// BenchmarkTable5_FPGAResources regenerates Table V: the FPGA composition
// of one GPN and the Alveo U280 capacity.
func BenchmarkTable5_FPGAResources(b *testing.B) { runExperiment(b, "tab5") }
