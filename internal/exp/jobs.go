package exp

import (
	"context"

	"nova"
	"nova/internal/harness"
)

// This file holds the helpers shared by every figure/table runner: the
// grid cell, the NOVA-vs-PolyGraph pair nearly every figure is built
// from, and the pool fan-out that keeps table rows in submission order.

// cell builds the harness.Workload for one (dataset, workload) grid cell:
// "cc" runs on the symmetrized graph, and the cell is stamped with the
// scale tier so reports from different tiers are never compared against
// each other.
func cell(s Scale, d *Dataset, w string, prIters int) harness.Workload {
	g := d.Graph
	if w == "cc" {
		g = g.Symmetrize()
	}
	return harness.Workload{Name: w, G: g, Root: d.Root, PRIters: prIters, Tier: s.String()}
}

// novaPG runs one cell on a fresh scaled 1-GPN NOVA engine and on the
// PolyGraph baseline — the comparison nearly every figure is built from.
func novaPG(ctx context.Context, s Scale, base nova.Config, w harness.Workload) (novaRep, pgRep *harness.Report, err error) {
	acc, err := nova.New(NOVAConfig(s, base, 1))
	if err != nil {
		return nil, nil, err
	}
	if novaRep, err = acc.Engine().RunWorkload(ctx, w); err != nil {
		return nil, nil, err
	}
	if pgRep, err = PGBaseline(s).Engine().RunWorkload(ctx, w); err != nil {
		return nil, nil, err
	}
	return novaRep, pgRep, nil
}

// rowJob is a pool job producing one finished table row.
type rowJob = harness.Job[[]string]

// runRows fans the row jobs out over the pool and collects rows in
// submission order, so tables are byte-identical at any worker count.
func runRows(ctx context.Context, p *harness.Pool, jobs []rowJob) ([][]string, error) {
	return harness.Values(harness.Map(ctx, p, jobs))
}

// runReports fans report-producing jobs out over the pool; figures whose
// rows normalize against a baseline cell collect all reports first.
func runReports(ctx context.Context, p *harness.Pool, jobs []harness.Job[*harness.Report]) ([]*harness.Report, error) {
	return harness.Values(harness.Map(ctx, p, jobs))
}
