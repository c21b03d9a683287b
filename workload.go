package nova

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"nova/graph"
	"nova/internal/harness"
	"nova/internal/ref"
	"nova/internal/sim"
	"nova/program"
)

// WorkloadNames lists the paper's five evaluation workloads in Fig. 4
// order. BFS, CC and SSSP run asynchronously; PR and BC run bulk-
// synchronously (Section V).
var WorkloadNames = []string{"bfs", "sssp", "cc", "pr", "bc"}

// SpillStressWorkload is the sixth, non-paper workload: asynchronous
// delta PageRank keeps a large fraction of vertices simultaneously
// active, so on the large scale tier it drives the VMU's spill/recovery
// machinery far harder than the traversal workloads do. It runs on the
// nova and extmem engines (engineWorkloads says why not on the others).
const SpillStressWorkload = "prdelta"

// engineWorkloads declares the named workloads each engine runs, keyed by
// the engine's name. It is the one declaration: novasim skips the pairs
// it leaves out, novad answers them with 400 before it builds a graph or
// queues a run, and every adapter's RunWorkload rejects them through
// CheckCell before it runs anything.
var engineWorkloads = map[string][]string{
	"nova": {"bfs", "sssp", "cc", "pr", "bc", SpillStressWorkload},
	// PolyGraph can execute prdelta, but an always-active delta workload
	// defeats temporal slicing: every slice pass touches every vertex,
	// so runs take hours at scales NOVA finishes in minutes. The workload
	// exists to stress NOVA's VMU.
	"polygraph": {"bfs", "sssp", "cc", "pr", "bc"},
	// The software baseline implements the five paper workloads as
	// dedicated kernels; it has no generic asynchronous executor to run
	// delta PageRank on.
	"ligra": {"bfs", "sssp", "cc", "pr", "bc"},
	// pr and bc are bulk-synchronous, and the external-memory baseline
	// runs asynchronous programs only: interval-at-a-time processing has
	// no global barrier to hang a BSP epoch on.
	"extmem": {"bfs", "sssp", "cc", SpillStressWorkload},
}

// ErrUnsupportedCell is wrapped by CheckCell's error for a known engine
// and a known workload that the engine does not run.
var ErrUnsupportedCell = errors.New("nova: unsupported cell")

// CheckCell reports whether the named engine runs the named workload,
// returning nil when it does. Otherwise the error names an unknown
// engine, an unknown workload, or, wrapping ErrUnsupportedCell, a pair
// the engine does not run.
func CheckCell(engine, workload string) error {
	runs, ok := engineWorkloads[engine]
	switch {
	case !ok:
		return fmt.Errorf("nova: unknown engine %q", engine)
	case !slices.Contains(WorkloadNames, workload) && workload != SpillStressWorkload:
		return fmt.Errorf("nova: unknown workload %q", workload)
	case !slices.Contains(runs, workload):
		return fmt.Errorf("%w: the %s engine does not run %s (it runs %s)", ErrUnsupportedCell, engine, workload, strings.Join(runs, ", "))
	}
	return nil
}

// prIters is the cell's PageRank iteration count: Workload.PRIters, or 10
// when it is not positive.
func prIters(w harness.Workload) int {
	if w.PRIters <= 0 {
		return 10
	}
	return w.PRIters
}

// workloadProgram builds the single-phase program for a workload cell.
// "bc" is two-phase and runs through program.RunBC instead.
func workloadProgram(w harness.Workload) (program.Program, error) {
	switch w.Name {
	case "bfs":
		return program.NewBFS(w.Root), nil
	case "sssp":
		return program.NewSSSP(w.Root), nil
	case "cc":
		return program.NewCC(), nil
	case "pr":
		return program.NewPageRank(0.85, prIters(w)), nil
	case SpillStressWorkload:
		// The residual tolerance is absolute mass, which bounds the run in
		// both directions: it must sit well below the initial per-vertex
		// residual (1-d)/|V| — 1.9e-6 at the large tier's twitter — or the
		// computation converges before it starts, while total activations
		// are capped by total-mass/tolerance, so every 10× of extra slack
		// buys ~10× more simulated work. 1e-7 stays below the initial
		// residual of every registry graph at every tier (2.9e-7 at
		// full-scale urand, the largest) and keeps the large-tier run
		// inside the simulator's event budget.
		return program.NewPRDelta(0.85, 1e-7), nil
	default:
		return nil, fmt.Errorf("nova: unknown workload %q", w.Name)
	}
}

// runFunc is one simulated engine's run of a custom program, the
// signature of the baselines' RunContext. On a cooperative stop it
// returns the partial report alongside the error.
type runFunc func(ctx context.Context, p program.Program, g *graph.CSR) (*harness.Report, error)

// runWorkload runs a named workload for the nova, polygraph and
// extmem adapters. It rejects a cell CheckCell rejects, builds the
// cell's program, runs "bc" as its two phases, and labels the report
// with the engine, the cell and the SequentialEdges denominator. A
// cooperative stop in either bc phase is salvaged like a single-phase
// one: the report comes back Partial, with its StopReason, alongside the
// error.
func runWorkload(ctx context.Context, e harness.Engine, w harness.Workload, run runFunc) (*harness.Report, error) {
	if err := CheckCell(e.Name(), w.Name); err != nil {
		return nil, err
	}
	if w.Name == "bc" {
		scores, stats, err := program.RunBC(bcPhases{ctx, run}, w.G, w.G.Transpose(), w.Root)
		reason := sim.ReasonFor(err)
		if err != nil && reason == "" {
			return nil, err
		}
		rep := &harness.Report{Scores: scores, Stats: stats, Partial: reason != "", StopReason: string(reason)}
		return label(rep, e, w), err
	}
	p, err := workloadProgram(w)
	if err != nil {
		return nil, err
	}
	rep, err := run(ctx, p, w.G)
	if rep == nil {
		return nil, err
	}
	return label(rep, e, w), err
}

// label stamps what every adapter's report carries beyond the run itself:
// the engine's name and fingerprint, the cell's workload and tier, and
// the SequentialEdges denominator.
func label(rep *harness.Report, e harness.Engine, w harness.Workload) *harness.Report {
	rep.Engine, rep.Fingerprint = e.Name(), e.Fingerprint()
	rep.Workload, rep.Tier = w.Name, w.Tier
	rep.SequentialEdges = ref.SequentialEdges(w.G, w.Root, w.Name, prIters(w))
	return rep
}

// bcPhases runs each betweenness-centrality phase through run under ctx,
// so a stop in either phase hands program.RunBC the stats so far.
type bcPhases struct {
	ctx context.Context
	run runFunc
}

func (b bcPhases) RunProgram(p program.Program, g *graph.CSR) ([]program.Prop, program.RunStats, error) {
	rep, err := b.run(b.ctx, p, g)
	if rep == nil {
		return nil, program.RunStats{}, err
	}
	return rep.Props, rep.Stats, err
}
