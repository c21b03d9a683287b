package exp

import (
	"context"
	"fmt"
	"strings"

	"nova"
	"nova/internal/harness"
)

// fignetWindow is the coalescing window (in inter-GPN fabric cycles) the
// "on" cells of the sweep use — the same window the determinism goldens
// and chaos grid pin.
const fignetWindow = 16

// FigNet is this repo's own network figure (no counterpart in the
// paper's evaluation): a sweep of the inter-GPN topology × the in-fabric
// coalescing stage × the GPN count on the message-heaviest cell (SSSP on
// the twitter stand-in). Each row compares a coalescing-off and a
// coalescing-on run of one (topology, gpns) point and reads the fabric's
// per-link counters for the hottest channel.
func FigNet(ctx context.Context, s Scale, base nova.Config, pool *harness.Pool) (*Table, error) {
	d, err := DatasetByName(s, "twitter")
	if err != nil {
		return nil, err
	}
	gpnsList := []int{4, 8}
	if s == Small {
		gpnsList = []int{2, 4}
	}
	topologies := []string{"crossbar", "ring", "mesh", "torus"}
	windows := []int64{0, fignetWindow}
	t := &Table{
		ID: "fignet",
		Title: fmt.Sprintf("Inter-GPN fabric sweep (SSSP on twitter): topology × coalescing (window=%d) × GPNs",
			fignetWindow),
		Header: []string{"topology", "gpns", "time-off(ms)", "time-on(ms)", "on/off",
			"coalesced", "bytes-saved", "avg-hops", "max-link-util"},
	}
	var jobs []harness.Job[*harness.Report]
	for _, topo := range topologies {
		for _, gpns := range gpnsList {
			for _, w := range windows {
				topo, gpns, w := topo, gpns, w
				jobs = append(jobs, harness.Job[*harness.Report]{
					Name: fmt.Sprintf("fignet/%s/gpns=%d/window=%d", topo, gpns, w),
					Run: func(ctx context.Context) (*harness.Report, error) {
						cfg := NOVAConfig(s, base, gpns)
						cfg.Topology = topo
						cfg.CoalesceWindow = w
						cfg.CoalesceCapacity = 0
						acc, err := nova.New(cfg)
						if err != nil {
							return nil, err
						}
						return acc.Engine().RunWorkload(ctx, cell(s, d, "sssp", 0))
					},
				})
			}
		}
	}
	reports, err := runReports(ctx, pool, jobs)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, topo := range topologies {
		for _, gpns := range gpnsList {
			off, on := reports[i], reports[i+1]
			i += 2
			offered := on.Metric(nova.MetricNetworkCoalesced) + on.Metric("network.inter_messages")
			coalFrac := 0.0
			if offered > 0 {
				coalFrac = on.Metric(nova.MetricNetworkCoalesced) / offered
			}
			t.AddRow(topo, fmt.Sprint(gpns),
				f3(off.Stats.SimSeconds*1e3), f3(on.Stats.SimSeconds*1e3),
				f2(on.Stats.SimSeconds/off.Stats.SimSeconds),
				pct(coalFrac), fmtBytes(int64(on.Metric(nova.MetricNetworkBytesSaved))),
				f2(on.Metric(nova.MetricNetworkAvgHops)), pct(maxLinkUtil(on)))
		}
	}
	t.Note("coalesced = share of offered inter-GPN batches absorbed into a buffered same-destination batch")
	t.Note("on/off < 1.00 means the coalescing window pays for its added delivery latency on this fabric shape")
	t.Note("max-link-util is the busiest directed channel (or crossbar port) from the per-link counters")
	return t, nil
}

// maxLinkUtil scans the report's stats dump for the fabric's per-link
// utilization counters — routed topologies expose
// network.links.<name>.utilization, the crossbar exposes per-GPN
// xbar_{out,in}_utilization ports — and returns the hottest one.
func maxLinkUtil(r *harness.Report) float64 {
	m := 0.0
	if r.Dump == nil {
		return m
	}
	for _, rec := range r.Dump.Records {
		k := rec.Path
		routed := strings.HasPrefix(k, "network.links.") && strings.HasSuffix(k, ".utilization")
		xbar := strings.HasSuffix(k, ".xbar_out_utilization") || strings.HasSuffix(k, ".xbar_in_utilization")
		if (routed || xbar) && rec.Value > m {
			m = rec.Value
		}
	}
	return m
}
