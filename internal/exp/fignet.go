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
// paper's evaluation): a sweep of the in-fabric coalescing stage × the
// GPN count on the message-heaviest cell (SSSP on the twitter stand-in).
// Each row compares a coalescing-off and a coalescing-on run at one GPN
// count and reads the fabric's per-port counters for the hottest
// crossbar port.
func FigNet(ctx context.Context, s Scale, base nova.Config, pool *harness.Pool) (*Table, error) {
	d, err := DatasetByName(s, "twitter")
	if err != nil {
		return nil, err
	}
	gpnsList := []int{4, 8}
	if s == Small {
		gpnsList = []int{2, 4}
	}
	windows := []int64{0, fignetWindow}
	t := &Table{
		ID: "fignet",
		Title: fmt.Sprintf("Inter-GPN fabric sweep (SSSP on twitter): coalescing (window=%d) × GPNs",
			fignetWindow),
		Header: []string{"gpns", "time-off(ms)", "time-on(ms)", "on/off",
			"coalesced", "bytes-saved", "max-port-util"},
	}
	var jobs []harness.Job[*harness.Report]
	for _, gpns := range gpnsList {
		for _, w := range windows {
			gpns, w := gpns, w
			jobs = append(jobs, harness.Job[*harness.Report]{
				Name: fmt.Sprintf("fignet/gpns=%d/window=%d", gpns, w),
				Run: func(ctx context.Context) (*harness.Report, error) {
					cfg := NOVAConfig(s, base, gpns)
					cfg.CoalesceWindow = w
					acc, err := nova.New(cfg)
					if err != nil {
						return nil, err
					}
					return acc.Engine().RunWorkload(ctx, cell(s, d, "sssp", 0))
				},
			})
		}
	}
	reports, err := runReports(ctx, pool, jobs)
	if err != nil {
		return nil, err
	}
	for i, gpns := range gpnsList {
		off, on := reports[2*i], reports[2*i+1]
		offered := on.Metric(nova.MetricNetworkCoalesced) + on.Metric("network.inter_messages")
		coalFrac := 0.0
		if offered > 0 {
			coalFrac = on.Metric(nova.MetricNetworkCoalesced) / offered
		}
		t.AddRow(fmt.Sprint(gpns),
			f3(off.Stats.SimSeconds*1e3), f3(on.Stats.SimSeconds*1e3),
			f2(on.Stats.SimSeconds/off.Stats.SimSeconds),
			pct(coalFrac), fmtBytes(int64(on.Metric(nova.MetricNetworkBytesSaved))),
			pct(maxPortUtil(on)))
	}
	t.Note("coalesced = share of offered inter-GPN batches absorbed into a buffered same-destination batch")
	t.Note("on/off < 1.00 means the coalescing window pays for its added delivery latency")
	t.Note("max-port-util is the busiest crossbar port (in or out) from the per-GPN port counters")
	return t, nil
}

// maxPortUtil scans the report's stats dump for the per-GPN
// xbar_{out,in}_utilization records and returns the hottest port.
func maxPortUtil(r *harness.Report) float64 {
	m := 0.0
	if r.Dump == nil {
		return m
	}
	for _, rec := range r.Dump.Records {
		k := rec.Path
		port := strings.HasSuffix(k, ".xbar_out_utilization") || strings.HasSuffix(k, ".xbar_in_utilization")
		if port && rec.Value > m {
			m = rec.Value
		}
	}
	return m
}
