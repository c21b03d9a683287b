package exp

import (
	"context"
	"fmt"

	"nova"
	"nova/graph"
	"nova/internal/harness"
)

// oocResidentPages is the per-PE SSD resident window the figure's NOVA
// cells use — deliberately far below the vertex-set footprint at every
// graph size, so the VMU spill path pays page-ins throughout the run.
const oocResidentPages = 64

// FigOOC is this repo's out-of-core figure (no counterpart in the paper's
// evaluation): NOVA's SSD-backed spill/recovery tier against the
// external-memory baseline (PartitionedVC-style interval-at-a-time
// processing) across graph sizes, on the asynchronous workloads both
// engines support. Each row compares one (workload, size) point: total
// modeled time, the share of it exposed as I/O stall, and the paging
// traffic (partition_loads / bytes_paged) each approach generated.
func FigOOC(ctx context.Context, s Scale, base nova.Config, pool *harness.Pool) (*Table, error) {
	d := s.divisor()
	sizes := []int{64000 / d, 128000 / d, 256000 / d}
	workloads := []string{"bfs", "sssp", "prdelta"}
	t := &Table{
		ID:    "figooc",
		Title: "Out-of-core tier: NOVA SSD spill/recovery vs. external-memory partitioning (uniform graphs, NVMe presets)",
		Header: []string{"workload", "vertices", "nova-time(ms)", "nova-io-stall", "nova-loads",
			"extmem-time(ms)", "extmem-io-stall", "extmem-loads", "extmem-hit-rate", "extmem/nova"},
	}
	var jobs []harness.Job[*harness.Report]
	for _, w := range workloads {
		for i, n := range sizes {
			w, n, i := w, n, i
			g := graph.GenUniform(fmt.Sprintf("ooc-urand-%d", n), n, 16, 64, int64(40+i))
			ds := &Dataset{Name: g.Name, Graph: g, Root: g.LargestOutDegreeVertex()}
			jobs = append(jobs, harness.Job[*harness.Report]{
				Name: fmt.Sprintf("figooc/nova/%s/%d", w, n),
				Run: func(ctx context.Context) (*harness.Report, error) {
					cfg := NOVAConfig(s, base, 1)
					cfg.OutOfCore = true
					cfg.SSDResidentPages = oocResidentPages
					acc, err := nova.New(cfg)
					if err != nil {
						return nil, err
					}
					return acc.Engine().RunWorkload(ctx, cell(s, ds, w, 0))
				},
			})
			jobs = append(jobs, harness.Job[*harness.Report]{
				Name: fmt.Sprintf("figooc/extmem/%s/%d", w, n),
				Run: func(ctx context.Context) (*harness.Report, error) {
					// DRAM budget of an eighth of the graph footprint, split
					// into sixteen intervals: enough pressure that reuse
					// beyond the cache pays SSD loads, like the NOVA cell.
					em := &nova.ExternalMemory{RAMBytes: g.FootprintBytes() / 8, PartitionEdges: g.NumEdges()/16 + 1}
					return em.Engine().RunWorkload(ctx, cell(s, ds, w, 0))
				},
			})
		}
	}
	reports, err := runReports(ctx, pool, jobs)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, w := range workloads {
		for _, n := range sizes {
			nv, em := reports[i], reports[i+1]
			i += 2
			ratio := 0.0
			if nv.Stats.SimSeconds > 0 {
				ratio = em.Stats.SimSeconds / nv.Stats.SimSeconds
			}
			t.AddRow(w, fmt.Sprint(n),
				f3(nv.Stats.SimSeconds*1e3), pct(stallShare(nv)),
				fmt.Sprint(int64(nv.Metric(nova.MetricPartitionLoads))),
				f3(em.Stats.SimSeconds*1e3), pct(stallShare(em)),
				fmt.Sprint(int64(em.Metric(nova.MetricPartitionLoads))),
				pct(em.Metric(nova.MetricCacheHitRate)),
				f2(ratio))
		}
	}
	t.Note("both engines page through the NVMe preset (4 KiB pages, ~3.2 GB/s, 10 us, QD16); loads are partition page-in events")
	t.Note("io-stall = io_stall_ticks/cycles: the paging latency the engine failed to hide behind compute")
	t.Note("extmem/nova > 1.00 means interval-at-a-time external-memory processing loses to NOVA's in-situ spill/recovery at this size")
	return t, nil
}

// stallShare returns the exposed-I/O share of a report's modeled cycles.
func stallShare(r *harness.Report) float64 {
	cycles := r.Metric(nova.MetricCycles)
	if cycles == 0 {
		return 0
	}
	return r.Metric(nova.MetricIOStallTicks) / cycles
}
