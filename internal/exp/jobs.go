package exp

import (
	"context"

	"nova"
	"nova/internal/harness"
)

// This file holds the job constructors shared by every figure/table
// runner: they replace the build-accelerator/run/collect boilerplate that
// used to repeat in each loop body, and adapt the three engines to the
// harness layer at experiment scale.

// NovaEngine wraps a NOVA configuration (usually NOVAConfig's, perhaps
// with a swept knob changed) as a harness.Engine.
func NovaEngine(cfg nova.Config) (harness.Engine, error) {
	acc, err := nova.New(cfg)
	if err != nil {
		return nil, err
	}
	return acc.Engine(), nil
}

// PGEngine returns the scaled iso-bandwidth PolyGraph baseline as a
// harness.Engine.
func PGEngine(s Scale) harness.Engine { return PGBaseline(s).Engine() }

// LigraEngine returns the software reference engine.
func LigraEngine() harness.Engine { return (&nova.Software{}).Engine() }

// cell builds the harness.Workload for one (dataset, workload) grid cell,
// picking the right graph orientation and stamping the scale tier so
// reports from different tiers are never compared against each other.
func cell(s Scale, d *Dataset, w string, prIters int) harness.Workload {
	g, gT := workloadGraph(d, w)
	return harness.Workload{Name: w, G: g, GT: gT, Root: d.Root, PRIters: prIters, Tier: s.String()}
}

// novaPG runs one cell on a fresh scaled 1-GPN NOVA engine and on the
// PolyGraph baseline — the comparison nearly every figure is built from.
func novaPG(ctx context.Context, s Scale, base nova.Config, w harness.Workload) (novaRep, pgRep *harness.Report, err error) {
	ne, err := NovaEngine(NOVAConfig(s, base, 1))
	if err != nil {
		return nil, nil, err
	}
	if novaRep, err = ne.RunWorkload(ctx, w); err != nil {
		return nil, nil, err
	}
	if pgRep, err = PGEngine(s).RunWorkload(ctx, w); err != nil {
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
