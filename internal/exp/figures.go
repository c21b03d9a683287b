package exp

import (
	"context"
	"fmt"

	"nova"
	"nova/graph"
	"nova/internal/harness"
)

// Fig1 reproduces Figure 1: throughput (GTEPS) of NOVA vs PolyGraph on
// BFS as graph size grows, with iso on-chip/bandwidth provisioning. The
// paper's claim: PolyGraph wins small, loses big, because slice switching
// overheads grow with graph size.
func Fig1(ctx context.Context, s Scale, base nova.Config, pool *harness.Pool) (*Table, error) {
	t := &Table{
		ID:     "fig1",
		Title:  "BFS throughput vs graph size (GTEPS), NOVA vs PolyGraph, iso-bandwidth",
		Header: []string{"vertices", "edges", "pg-slices", "nova-gteps", "pg-gteps", "nova/pg"},
	}
	n0 := 24000 / s.divisor()
	var jobs []rowJob
	for _, mult := range []int{1, 2, 4, 8, 16} {
		mult := mult
		jobs = append(jobs, rowJob{
			Name: fmt.Sprintf("fig1/x%d", mult),
			Run: func(ctx context.Context) ([]string, error) {
				n := n0 * mult
				g := graph.GenUniform(fmt.Sprintf("urand-%d", n), n, 16, 64, int64(100+mult))
				w := harness.Workload{Name: "bfs", G: g, Root: g.LargestOutDegreeVertex()}
				novaRep, pgRep, err := novaPG(ctx, s, base, w)
				if err != nil {
					return nil, err
				}
				return []string{
					fmt.Sprint(n), fmt.Sprint(g.NumEdges()), fmt.Sprint(int(pgRep.Metric(nova.MetricSliceCount))),
					f3(novaRep.EffectiveGTEPS()), f3(pgRep.EffectiveGTEPS()),
					f2(pgRep.Stats.SimSeconds / novaRep.Stats.SimSeconds),
				}, nil
			},
		})
	}
	rows, err := runRows(ctx, pool, jobs)
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Note("paper shape: PolyGraph throughput decays as slices grow; NOVA stays flat")
	return t, nil
}

// Fig2 reproduces Figure 2: the execution-time breakdown of temporal
// partitioning (processing / switching / inefficiency) as the slice count
// grows, BFS on the twitter stand-in.
func Fig2(ctx context.Context, s Scale, _ nova.Config, pool *harness.Pool) (*Table, error) {
	d, err := DatasetByName(s, "twitter")
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig2",
		Title:  "Temporal-partitioning overhead vs #slices (BFS on twitter)",
		Header: []string{"slices", "processing", "switching", "inefficiency"},
	}
	var jobs []rowJob
	for _, slices := range []int{1, 2, 4, 8, 16, 32, 64} {
		slices := slices
		jobs = append(jobs, rowJob{
			Name: fmt.Sprintf("fig2/slices=%d", slices),
			Run: func(ctx context.Context) ([]string, error) {
				pg := PGBaseline(s)
				pg.ForceSlices = slices
				rep, err := pg.Engine().RunWorkload(ctx, cell(s, d, "bfs", 0))
				if err != nil {
					return nil, err
				}
				tot := rep.Stats.SimSeconds
				return []string{fmt.Sprint(slices), pct(rep.Metric(nova.MetricProcessingSeconds) / tot),
					pct(rep.Metric(nova.MetricSwitchingSeconds) / tot), pct(rep.Metric(nova.MetricInefficiencySeconds) / tot)}, nil
			},
		})
	}
	rows, err := runRows(ctx, pool, jobs)
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Note("paper shape: overheads ≈20%% below 3 slices, inefficiency >75%% at several hundred slices")
	return t, nil
}

// Fig4 reproduces Figure 4: NOVA vs PolyGraph vs Ligra across the five
// workloads and five graphs, iso-bandwidth.
func Fig4(ctx context.Context, s Scale, base nova.Config, pool *harness.Pool) (*Table, error) {
	t := &Table{
		ID:     "fig4",
		Title:  "NOVA vs PolyGraph (iso-bandwidth 332.8 GB/s) vs Ligra, effective GTEPS",
		Header: []string{"graph", "workload", "nova", "polygraph", "ligra(wall)", "nova/pg speedup"},
	}
	var jobs []rowJob
	for _, d := range Datasets(s) {
		for _, w := range nova.WorkloadNames {
			d, w := d, w
			jobs = append(jobs, rowJob{
				Name: fmt.Sprintf("fig4/%s/%s", d.Name, w),
				Run: func(ctx context.Context) ([]string, error) {
					wl := cell(s, d, w, 10)
					novaRep, pgRep, err := novaPG(ctx, s, base, wl)
					if err != nil {
						return nil, fmt.Errorf("%s/%s: %w", d.Name, w, err)
					}
					swRep, err := (&nova.Software{}).Engine().RunWorkload(ctx, wl)
					if err != nil {
						return nil, fmt.Errorf("ligra %s/%s: %w", d.Name, w, err)
					}
					return []string{d.Name, w,
						f3(novaRep.EffectiveGTEPS()), f3(pgRep.EffectiveGTEPS()),
						f3(swRep.EffectiveGTEPS()),
						f2(pgRep.Stats.SimSeconds / novaRep.Stats.SimSeconds)}, nil
				},
			})
		}
	}
	rows, err := runRows(ctx, pool, jobs)
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Note("paper shape: PolyGraph ~1.3x on twitter-BFS; NOVA wins on friendster/host/urand, up to 2.35x (urand SSSP)")
	return t, nil
}

// Fig5 reproduces Figure 5: the share of messages coalesced before
// propagation, NOVA vs PolyGraph, BFS.
func Fig5(ctx context.Context, s Scale, base nova.Config, pool *harness.Pool) (*Table, error) {
	t := &Table{
		ID:     "fig5",
		Title:  "Messages coalesced (BFS): NOVA's DRAM-wide window vs PolyGraph's on-chip window",
		Header: []string{"graph", "nova-coalesced", "pg-coalesced", "ratio"},
	}
	var jobs []rowJob
	for _, d := range Datasets(s) {
		d := d
		jobs = append(jobs, rowJob{
			Name: fmt.Sprintf("fig5/%s", d.Name),
			Run: func(ctx context.Context) ([]string, error) {
				novaRep, pgRep, err := novaPG(ctx, s, base, cell(s, d, "bfs", 0))
				if err != nil {
					return nil, err
				}
				nc := frac(novaRep.Stats.MessagesCoalesced, novaRep.Stats.MessagesSent)
				pc := frac(pgRep.Stats.MessagesCoalesced, pgRep.Stats.MessagesSent)
				ratio := 0.0
				if pc > 0 {
					ratio = nc / pc
				}
				return []string{d.Name, pct(nc), pct(pc), f2(ratio)}, nil
			},
		})
	}
	rows, err := runRows(ctx, pool, jobs)
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Note("paper shape: NOVA coalesces up to ~3x more messages than PolyGraph")
	return t, nil
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Fig6 reproduces Figure 6: execution-time breakdowns — NOVA's overfetch
// overhead vs PolyGraph's slice-switching overhead.
func Fig6(ctx context.Context, s Scale, base nova.Config, pool *harness.Pool) (*Table, error) {
	t := &Table{
		ID:     "fig6",
		Title:  "Execution time breakdown: NOVA (processing/overfetch) vs PolyGraph (processing/switch+ineff)",
		Header: []string{"graph", "workload", "nova-proc", "nova-overhead", "pg-proc", "pg-overhead", "nova/pg"},
	}
	var jobs []rowJob
	for _, d := range Datasets(s) {
		for _, w := range []string{"bfs", "pr"} {
			d, w := d, w
			jobs = append(jobs, rowJob{
				Name: fmt.Sprintf("fig6/%s/%s", d.Name, w),
				Run: func(ctx context.Context) ([]string, error) {
					novaRep, pgRep, err := novaPG(ctx, s, base, cell(s, d, w, 10))
					if err != nil {
						return nil, err
					}
					ntot := novaRep.Stats.SimSeconds
					ptot := pgRep.Stats.SimSeconds
					return []string{d.Name, w,
						pct(novaRep.Metric(nova.MetricProcessingSeconds) / ntot), pct(novaRep.Metric(nova.MetricOverheadSeconds) / ntot),
						pct(pgRep.Metric(nova.MetricProcessingSeconds) / ptot),
						pct((pgRep.Metric(nova.MetricSwitchingSeconds) + pgRep.Metric(nova.MetricInefficiencySeconds)) / ptot),
						f2(ptot / ntot)}, nil
				},
			})
		}
	}
	rows, err := runRows(ctx, pool, jobs)
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Note("paper shape: PG's raw processing is faster (on-chip vertices) but overhead negates it on large graphs")
	return t, nil
}

// Fig7 reproduces Figure 7: strong scaling of NOVA — fixed graph, 1/2/4/8
// GPNs — for BFS (data-driven) and BC (topology-driven). Every
// (graph, workload, gpns) cell is an independent job; rows normalize to
// the 1-GPN cell after the sweep completes.
func Fig7(ctx context.Context, s Scale, base nova.Config, pool *harness.Pool) (*Table, error) {
	t := &Table{
		ID:     "fig7",
		Title:  "Strong scaling: speedup over 1 GPN for BFS and BC",
		Header: []string{"graph", "workload", "1", "2", "4", "8", "8-gpn efficiency"},
	}
	names := []string{"twitter", "urand"}
	workloads := []string{"bfs", "bc"}
	gpnsList := []int{1, 2, 4, 8}
	var jobs []harness.Job[*harness.Report]
	var rowMeta [][2]string
	for _, name := range names {
		d, err := DatasetByName(s, name)
		if err != nil {
			return nil, err
		}
		for _, w := range workloads {
			rowMeta = append(rowMeta, [2]string{d.Name, w})
			for _, gpns := range gpnsList {
				d, w, gpns := d, w, gpns
				jobs = append(jobs, harness.Job[*harness.Report]{
					Name: fmt.Sprintf("fig7/%s/%s/gpns=%d", d.Name, w, gpns),
					Run: func(ctx context.Context) (*harness.Report, error) {
						acc, err := nova.New(NOVAConfig(s, base, gpns))
						if err != nil {
							return nil, err
						}
						return acc.Engine().RunWorkload(ctx, cell(s, d, w, 0))
					},
				})
			}
		}
	}
	reports, err := runReports(ctx, pool, jobs)
	if err != nil {
		return nil, err
	}
	for r, meta := range rowMeta {
		row := []string{meta[0], meta[1]}
		t1 := reports[r*len(gpnsList)].Stats.SimSeconds
		var last float64
		for i := range gpnsList {
			speedup := t1 / reports[r*len(gpnsList)+i].Stats.SimSeconds
			last = speedup
			row = append(row, f2(speedup))
		}
		row = append(row, pct(last/8))
		t.Rows = append(t.Rows, row)
	}
	t.Note("paper shape: near-perfect scaling; worst case 19%% off ideal; urand can exceed ideal via work efficiency")
	return t, nil
}

// Fig8 reproduces Figure 8: weak scaling — the graph doubles with the GPN
// count (RMAT series); ideal is constant execution time. Cells run
// concurrently; rows normalize to the 1-GPN cell afterwards.
func Fig8(ctx context.Context, s Scale, base nova.Config, pool *harness.Pool) (*Table, error) {
	t := &Table{
		ID:     "fig8",
		Title:  "Weak scaling (BFS on RMAT series): time normalized to 1 GPN (1.0 = ideal)",
		Header: []string{"gpns", "graph", "edges", "time-vs-1gpn", "gteps"},
	}
	gpnsList := []int{1, 2, 4, 8}
	graphs := make([]*graph.CSR, len(gpnsList))
	var jobs []harness.Job[*harness.Report]
	for i, gpns := range gpnsList {
		graphs[i] = WeakScalingGraph(s, gpns)
		g, gpns := graphs[i], gpns
		jobs = append(jobs, harness.Job[*harness.Report]{
			Name: fmt.Sprintf("fig8/gpns=%d", gpns),
			Run: func(ctx context.Context) (*harness.Report, error) {
				acc, err := nova.New(NOVAConfig(s, base, gpns))
				if err != nil {
					return nil, err
				}
				return acc.Engine().RunWorkload(ctx, harness.Workload{Name: "bfs", G: g, Root: g.LargestOutDegreeVertex()})
			},
		})
	}
	reports, err := runReports(ctx, pool, jobs)
	if err != nil {
		return nil, err
	}
	t1 := reports[0].Stats.SimSeconds
	for i, gpns := range gpnsList {
		t.AddRow(fmt.Sprint(gpns), graphs[i].Name, fmt.Sprint(graphs[i].NumEdges()),
			f2(reports[i].Stats.SimSeconds/t1), f3(reports[i].EffectiveGTEPS()))
	}
	t.Note("paper shape: no degradation as GPNs and problem size grow together")
	return t, nil
}

// Fig9a reproduces Figure 9a: sensitivity to per-PE cache size (the paper
// sweeps 64 KiB → 4 MiB and finds <2% change on large graphs).
func Fig9a(ctx context.Context, s Scale, base nova.Config, pool *harness.Pool) (*Table, error) {
	t := &Table{
		ID:     "fig9a",
		Title:  "Cache-size sensitivity: time normalized to smallest cache",
		Header: []string{"graph", "workload", "1x", "4x", "16x", "64x", "hit-rate@1x"},
	}
	baseCache := s.CacheBytesPerPE()
	mults := []int{1, 4, 16, 64}
	var jobs []harness.Job[*harness.Report]
	var rowMeta [][2]string
	for _, name := range []string{"road", "twitter"} {
		d, err := DatasetByName(s, name)
		if err != nil {
			return nil, err
		}
		for _, w := range []string{"bfs", "pr"} {
			rowMeta = append(rowMeta, [2]string{d.Name, w})
			for _, mult := range mults {
				d, w, mult := d, w, mult
				jobs = append(jobs, harness.Job[*harness.Report]{
					Name: fmt.Sprintf("fig9a/%s/%s/x%d", d.Name, w, mult),
					Run: func(ctx context.Context) (*harness.Report, error) {
						cfg := NOVAConfig(s, base, 1)
						cfg.CacheBytesPerPE = baseCache * mult
						acc, err := nova.New(cfg)
						if err != nil {
							return nil, err
						}
						return acc.Engine().RunWorkload(ctx, cell(s, d, w, 10))
					},
				})
			}
		}
	}
	reports, err := runReports(ctx, pool, jobs)
	if err != nil {
		return nil, err
	}
	for r, meta := range rowMeta {
		row := []string{meta[0], meta[1]}
		ref := reports[r*len(mults)]
		for i := range mults {
			row = append(row, f2(reports[r*len(mults)+i].Stats.SimSeconds/ref.Stats.SimSeconds))
		}
		row = append(row, pct(ref.Metric(nova.MetricCacheHitRate)))
		t.Rows = append(t.Rows, row)
	}
	t.Note("paper shape: <2%% improvement from growing the cache 64x on large graphs; only road benefits")
	return t, nil
}

// Fig9b reproduces Figure 9b: sensitivity to the spatial vertex mapping
// (load-balanced / locality / random) on a multi-GPN system.
func Fig9b(ctx context.Context, s Scale, base nova.Config, pool *harness.Pool) (*Table, error) {
	gpns := 8
	if s == Small {
		gpns = 2
	}
	t := &Table{
		ID:     "fig9b",
		Title:  fmt.Sprintf("Vertex-mapping sensitivity (%d GPNs): time normalized to random", gpns),
		Header: []string{"graph", "workload", "random", "load-balanced", "locality"},
	}
	mappings := []string{"random", "load-balanced", "locality"}
	var jobs []harness.Job[*harness.Report]
	var rowMeta [][2]string
	for _, name := range []string{"twitter", "road"} {
		d, err := DatasetByName(s, name)
		if err != nil {
			return nil, err
		}
		for _, w := range []string{"bfs", "pr"} {
			rowMeta = append(rowMeta, [2]string{d.Name, w})
			for _, mapping := range mappings {
				d, w, mapping := d, w, mapping
				jobs = append(jobs, harness.Job[*harness.Report]{
					Name: fmt.Sprintf("fig9b/%s/%s/%s", d.Name, w, mapping),
					Run: func(ctx context.Context) (*harness.Report, error) {
						cfg := NOVAConfig(s, base, gpns)
						cfg.Mapping = mapping
						acc, err := nova.New(cfg)
						if err != nil {
							return nil, err
						}
						return acc.Engine().RunWorkload(ctx, cell(s, d, w, 10))
					},
				})
			}
		}
	}
	reports, err := runReports(ctx, pool, jobs)
	if err != nil {
		return nil, err
	}
	for r, meta := range rowMeta {
		row := []string{meta[0], meta[1]}
		ref := reports[r*len(mappings)].Stats.SimSeconds
		for i := range mappings {
			row = append(row, f2(reports[r*len(mappings)+i].Stats.SimSeconds/ref))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Note("paper shape: locality-optimized at most ~20%% better; random needs no preprocessing")
	return t, nil
}

// Fig9c reproduces Figure 9c: fabric sensitivity — the hierarchical
// fabric vs an ideal infinite-bandwidth point-to-point network.
func Fig9c(ctx context.Context, s Scale, base nova.Config, pool *harness.Pool) (*Table, error) {
	gpns := 8
	if s == Small {
		gpns = 2
	}
	t := &Table{
		ID:     "fig9c",
		Title:  fmt.Sprintf("Fabric sensitivity (%d GPNs): hierarchical time / ideal-P2P time", gpns),
		Header: []string{"graph", "workload", "hierarchical/ideal"},
	}
	var jobs []rowJob
	for _, name := range []string{"twitter", "urand"} {
		d, err := DatasetByName(s, name)
		if err != nil {
			return nil, err
		}
		for _, w := range []string{"bfs", "pr"} {
			d, w := d, w
			jobs = append(jobs, rowJob{
				Name: fmt.Sprintf("fig9c/%s/%s", d.Name, w),
				Run: func(ctx context.Context) ([]string, error) {
					var times [2]float64
					for i, fabric := range []string{"hierarchical", "ideal"} {
						cfg := NOVAConfig(s, base, gpns)
						cfg.Fabric = fabric
						if fabric == "ideal" {
							// The ideal fabric has no inter-GPN links, so a
							// globally-selected coalescing window cannot
							// apply to this side of the comparison.
							cfg.CoalesceWindow = 0
						}
						acc, err := nova.New(cfg)
						if err != nil {
							return nil, err
						}
						rep, err := acc.Engine().RunWorkload(ctx, cell(s, d, w, 10))
						if err != nil {
							return nil, err
						}
						times[i] = rep.Stats.SimSeconds
					}
					return []string{d.Name, w, f2(times[0] / times[1])}, nil
				},
			})
		}
	}
	rows, err := runRows(ctx, pool, jobs)
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Note("paper shape: the crossbar-based fabric performs like the ideal network (no communication bottleneck)")
	return t, nil
}

// Fig10 reproduces Figure 10: the vertex-memory bandwidth breakdown
// (useful reads / writes / wasteful recovery reads) across tracker sizes.
func Fig10(ctx context.Context, s Scale, base nova.Config, pool *harness.Pool) (*Table, error) {
	t := &Table{
		ID:     "fig10",
		Title:  "Vertex-memory bandwidth split vs superblock dimension (fraction of peak)",
		Header: []string{"graph", "workload", "sb-dim", "useful", "write", "wasteful"},
	}
	var jobs []rowJob
	for _, name := range []string{"road", "twitter"} {
		d, err := DatasetByName(s, name)
		if err != nil {
			return nil, err
		}
		for _, w := range []string{"bfs", "pr"} {
			for _, dim := range []int{32, 64, 128, 256} {
				d, w, dim := d, w, dim
				jobs = append(jobs, rowJob{
					Name: fmt.Sprintf("fig10/%s/%s/dim=%d", d.Name, w, dim),
					Run: func(ctx context.Context) ([]string, error) {
						cfg := NOVAConfig(s, base, 1)
						cfg.SuperblockDim = dim
						acc, err := nova.New(cfg)
						if err != nil {
							return nil, err
						}
						rep, err := acc.Engine().RunWorkload(ctx, cell(s, d, w, 10))
						if err != nil {
							return nil, err
						}
						return []string{d.Name, w, fmt.Sprint(dim),
							pct(rep.Metric(nova.MetricVertexUsefulFrac)), pct(rep.Metric(nova.MetricVertexWriteFrac)),
							pct(rep.Metric(nova.MetricVertexWastefulFrac))}, nil
					},
				})
			}
		}
	}
	rows, err := runRows(ctx, pool, jobs)
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Note("paper shape: road/BFS wastes the most bandwidth (sparse frontier); dense PR wastes little; distribution insensitive to tracker size")
	return t, nil
}
