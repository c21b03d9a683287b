package exp

import (
	"context"
	"fmt"
	"sort"

	"nova"
	"nova/internal/harness"
	"nova/internal/resource"
)

// Tab1 reproduces Table I: the spilling-method trade-offs, measured by
// running the same workload under both VMU policies.
func Tab1(ctx context.Context, s Scale, base nova.Config, pool *harness.Pool) (*Table, error) {
	d, err := DatasetByName(s, "twitter")
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "tab1",
		Title: "Active-vertex spilling trade-offs (SSSP on twitter, 8-entry active buffer)",
		Header: []string{"policy", "spills", "extra-writes/spill", "stale-retrievals",
			"metadata-bytes", "time(ms)"},
	}
	var jobs []rowJob
	for _, policy := range []string{"overwrite", "fifo"} {
		policy := policy
		jobs = append(jobs, rowJob{
			Name: fmt.Sprintf("tab1/%s", policy),
			Run: func(ctx context.Context) ([]string, error) {
				cfg := NOVAConfig(s, base, 1)
				cfg.Spill = policy
				cfg.ActiveBufferEntries = 8
				acc, err := nova.New(cfg)
				if err != nil {
					return nil, err
				}
				rep, err := acc.Engine().RunWorkload(ctx, cell(s, d, "sssp", 0))
				if err != nil {
					return nil, err
				}
				perSpill := 0.0
				if rep.Metric(nova.MetricSpills) > 0 {
					perSpill = rep.Metric(nova.MetricSpillWrites) / rep.Metric(nova.MetricSpills)
				}
				return []string{policy, fmt.Sprint(int64(rep.Metric(nova.MetricSpills))), f2(perSpill),
					fmt.Sprint(int64(rep.Metric(nova.MetricStaleRetrievals))),
					fmt.Sprint(int64(rep.Metric(nova.MetricMetadataBytes))),
					f3(rep.Stats.SimSeconds * 1e3)}, nil
			},
		})
	}
	rows, err := runRows(ctx, pool, jobs)
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Note("paper: overwriting in the vertex set needs 1 write per spill, no metadata, no duplicate entries")
	return t, nil
}

// Tab2 prints the Table II system specification as configured.
func Tab2(_ context.Context, s Scale, base nova.Config, _ *harness.Pool) (*Table, error) {
	cfg := NOVAConfig(s, base, 1)
	t := &Table{
		ID:     "tab2",
		Title:  "System specification per GPN (scaled experiment configuration)",
		Header: []string{"parameter", "paper", "this run"},
	}
	t.AddRow("PEs per GPN @2GHz", "8", fmt.Sprint(cfg.PEsPerGPN))
	t.AddRow("MPU cache per PE", "64 KiB", fmt.Sprintf("%d B (scaled with graphs)", cfg.CacheBytesPerPE))
	t.AddRow("tracker superblock dim", "128", fmt.Sprint(cfg.SuperblockDim))
	t.AddRow("active buffer entries", "80", fmt.Sprint(cfg.ActiveBufferEntries))
	t.AddRow("vertex memory", "HBM2 stack, 256 GB/s, 32 B atoms", "same timing model")
	t.AddRow("edge memory", "4x DDR4, 76.8 GB/s", "same timing model")
	t.AddRow("functional units", "16 reduce + 48 propagate", "2 + 6 per PE")
	t.AddRow("PE-PE network", "8x8 P2P, 1.2 GB/s/link", "same")
	t.AddRow("inter-GPN network", "crossbar, 60 GB/s/port", "same")
	return t, nil
}

// Tab3 reproduces Table III: the dataset registry with the slice counts
// each graph needs under the (scaled) PolyGraph scratchpad.
func Tab3(_ context.Context, s Scale, _ nova.Config, _ *harness.Pool) (*Table, error) {
	t := &Table{
		ID:     "tab3",
		Title:  fmt.Sprintf("Graph workloads (scale=%s); slice counts must match the paper", s),
		Header: []string{"graph", "vertices", "edges", "avg-deg", "footprint", "slices", "paper-slices"},
	}
	pgCap := s.PolyGraphOnChip()
	for _, d := range Datasets(s) {
		slices := int((4*int64(d.Graph.NumVertices()) + pgCap - 1) / pgCap)
		t.AddRow(d.Name,
			fmt.Sprint(d.Graph.NumVertices()), fmt.Sprint(d.Graph.NumEdges()),
			f2(d.Graph.AvgDegree()), fmtBytes(d.Graph.FootprintBytes()),
			fmt.Sprint(slices), fmt.Sprint(d.PaperSlices))
	}
	t.Note("generators: road=2D grid (high diameter), twitter/friendster/host=RMAT, urand=uniform; degrees follow Table III")
	return t, nil
}

// Tab4 reproduces Table IV: resources to support WDC12.
func Tab4(context.Context, Scale, nova.Config, *harness.Pool) (*Table, error) {
	t := &Table{
		ID:     "tab4",
		Title:  "Requirements to support WDC12 (3.5B vertices, 128B edges)",
		Header: []string{"accelerator", "hbm", "ddr", "sram", "cores", "slices"},
	}
	for _, r := range resource.TableIV(resource.WDC12()) {
		hbm := "-"
		if r.HBMStacks > 0 {
			hbm = fmt.Sprintf("%d stacks (%s)", r.HBMStacks, fmtBytes(r.HBMBytes))
		}
		ddr := "-"
		if r.DDRChannels > 0 {
			ddr = fmt.Sprintf("%d ch (%s)", r.DDRChannels, fmtBytes(r.DDRBytes))
		}
		t.AddRow(r.Accelerator, hbm, ddr, fmtBytes(r.SRAMBytes),
			fmt.Sprint(r.Cores), fmt.Sprint(r.Slices))
	}
	t.Note("paper row for NOVA: 14 stacks / 56 ch (1 TiB) / 21 MiB / 112 cores / 1 slice — reproduced exactly")
	t.Note("PolyGraph and Dalorex rows are parameterized estimates; see EXPERIMENTS.md for assumptions")
	return t, nil
}

// Tab5 reproduces Table V: FPGA resource composition for one GPN and the
// multi-GPN capacity of an Alveo U280.
func Tab5(context.Context, Scale, nova.Config, *harness.Pool) (*Table, error) {
	t := &Table{
		ID:     "tab5",
		Title:  "FPGA implementation, 1 GPN at 1 GHz (post-synthesis costs from the paper)",
		Header: []string{"unit", "LUT", "FF", "BRAM", "URAM", "power(mW)"},
	}
	units := resource.GPNUnits()
	units = append(units, resource.GPNTotal())
	for _, u := range units {
		t.AddRow(u.Name, fmt.Sprint(u.LUT), fmt.Sprint(u.FF),
			fmt.Sprint(u.BRAM), fmt.Sprint(u.URAM), fmt.Sprint(u.PowerMW))
	}
	dev := resource.AlveoU280()
	n, binding := resource.MaxGPNs(dev)
	lut, ff, bram, uram := resource.Utilization(dev, 1)
	t.Note("single-GPN utilization on %s: LUT %s, FF %s, BRAM %s, URAM %s",
		dev.Name, pct(lut), pct(ff), pct(bram), pct(uram))
	t.Note("%d GPNs fit (%s-bound); the paper quotes 14 with URAM->BRAM remapping", n, binding)
	return t, nil
}

func fmtBytes(b int64) string {
	switch {
	case b >= resource.TiB:
		return fmt.Sprintf("%.2f TiB", float64(b)/float64(resource.TiB))
	case b >= resource.GiB:
		return fmt.Sprintf("%.2f GiB", float64(b)/float64(resource.GiB))
	case b >= resource.MiB:
		return fmt.Sprintf("%.2f MiB", float64(b)/float64(resource.MiB))
	case b >= resource.KiB:
		return fmt.Sprintf("%.2f KiB", float64(b)/float64(resource.KiB))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// Runner executes one experiment at a scale, fanning its independent
// cells out over the harness pool (nil pool = sequential). base carries
// the NOVA knobs every cell starts from (NOVAConfig scales it per cell;
// nova.DefaultConfig reproduces the paper's setup). Row order is
// deterministic regardless of the worker count.
type Runner func(ctx context.Context, s Scale, base nova.Config, pool *harness.Pool) (*Table, error)

// All maps experiment IDs to runners, covering every table and figure in
// the paper's evaluation.
var All = map[string]Runner{
	"fig1":   Fig1,
	"fig2":   Fig2,
	"fig4":   Fig4,
	"fig5":   Fig5,
	"fig6":   Fig6,
	"fig7":   Fig7,
	"fig8":   Fig8,
	"fig9a":  Fig9a,
	"fig9b":  Fig9b,
	"fig9c":  Fig9c,
	"fig10":  Fig10,
	"fignet": FigNet,
	"figooc": FigOOC,
	"tab1":   Tab1,
	"tab2":   Tab2,
	"tab3":   Tab3,
	"tab4":   Tab4,
	"tab5":   Tab5,
}

// IDs returns all experiment IDs in a stable order.
func IDs() []string {
	ids := make([]string, 0, len(All))
	for id := range All {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
