package nova

import (
	"context"
	"fmt"

	"nova/graph"
	"nova/internal/harness"
	"nova/internal/ligra"
	"nova/internal/polygraph"
	"nova/internal/sim"
	"nova/program"
)

// PolyGraphBaseline runs programs on the temporal-partitioning baseline
// accelerator model: named workloads through Engine, custom programs
// through RunContext. Its json tags are the novad "polygraph" block's
// wire names (API.md); zero values mean the defaults and negative ones
// are rejected.
type PolyGraphBaseline struct {
	// OnChipBytes is the scratchpad capacity (default 32 MiB; scaled
	// experiments shrink it to keep Table III slice counts).
	OnChipBytes int64 `json:"onchip_bytes"`
	// MemBandwidth is unified off-chip bandwidth in bytes/second
	// (default 332.8 GB/s, the iso-bandwidth setting). Go API only.
	MemBandwidth float64 `json:"-"`
	// ForceSlices overrides the computed slice count when positive.
	ForceSlices int `json:"force_slices"`
}

func (b *PolyGraphBaseline) config() polygraph.Config {
	cfg := polygraph.DefaultConfig()
	if b.OnChipBytes > 0 {
		cfg.OnChipBytes = b.OnChipBytes
	}
	if b.MemBandwidth > 0 {
		cfg.MemBandwidth = b.MemBandwidth
	}
	cfg.ForceSlices = b.ForceSlices
	return cfg
}

// Validate reports the first configuration error, a negative size, rate
// or slice count, so callers can reject a configuration before any run;
// RunContext and the Engine fail on the same error.
func (b *PolyGraphBaseline) Validate() error {
	switch {
	case b.OnChipBytes < 0:
		return fmt.Errorf("nova: polygraph OnChipBytes = %d", b.OnChipBytes)
	case b.MemBandwidth < 0:
		return fmt.Errorf("nova: polygraph MemBandwidth = %v", b.MemBandwidth)
	case b.ForceSlices < 0:
		return fmt.Errorf("nova: polygraph ForceSlices = %d", b.ForceSlices)
	}
	return nil
}

// RunContext executes the custom program p on g under the PolyGraph
// model, polling ctx cooperatively between rounds and slice activations.
// The report carries the run's props, stats and dump; Metric reads the
// temporal-partitioning breakdown from the dump (MetricSliceCount,
// MetricSlicePasses, MetricSwitchingSeconds, …). On a cooperative stop
// (cancellation, deadline, round-budget exhaustion) it returns BOTH a
// partial report (Partial set, with its StopReason) and the error.
func (b *PolyGraphBaseline) RunContext(ctx context.Context, p program.Program, g *graph.CSR) (*harness.Report, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	res, err := polygraph.Run(ctx, b.config(), g, p)
	if res == nil {
		return nil, err
	}
	return &harness.Report{Props: res.Props, Stats: res.Stats, Dump: res.Dump,
		Partial: res.Partial, StopReason: string(res.StopReason)}, err
}

// Engine returns the harness view of the PolyGraph baseline, the way to
// run a named workload. Each RunWorkload call owns a private simulation,
// so the engine is safe for concurrent use by harness.Pool workers.
//
// The report carries the run's stats dump, which harness.Report.Metric
// reads by record path: root-level keys processing_seconds,
// switching_seconds, inefficiency_seconds, slice_count, rounds,
// slice_passes, edge_bw_share plus traffic counters and per-slice detail
// (slice0.passes, …). The two-phase "bc" workload reports Stats only.
func (b *PolyGraphBaseline) Engine() harness.Engine { return pgEngine{b} }

type pgEngine struct{ b *PolyGraphBaseline }

func (e pgEngine) Name() string { return "polygraph" }

func (e pgEngine) Fingerprint() string {
	cfg := e.b.config()
	return fmt.Sprintf("polygraph{onchip=%d bw=%.1f forceslices=%d}",
		cfg.OnChipBytes, cfg.MemBandwidth, cfg.ForceSlices)
}

func (e pgEngine) RunWorkload(ctx context.Context, w harness.Workload) (*harness.Report, error) {
	if w.Name == SpillStressWorkload {
		// PolyGraph can execute the program, but an always-active delta
		// workload defeats temporal slicing — every slice pass touches
		// every vertex — so runs take hours at scales NOVA finishes in
		// minutes. The workload exists to stress NOVA's VMU; keep it there.
		return nil, fmt.Errorf("nova: %q is the NOVA spill-stress workload; run it on the nova engine", w.Name)
	}
	return runWorkload(ctx, e, w, e.b.RunContext)
}

var _ harness.Engine = pgEngine{}

// Software runs the Ligra-style shared-memory framework on the host and
// reports wall-clock performance — the paper's software reference point.
// Its json tags are the novad "ligra" block's wire names (API.md).
type Software struct {
	// Threads bounds worker goroutines (0 = all cores; negative is
	// rejected).
	Threads int `json:"threads"`
}

// Validate reports a negative thread count, so callers can reject it
// before any run; the Engine fails on the same error.
func (s *Software) Validate() error {
	if s.Threads < 0 {
		return fmt.Errorf("nova: ligra Threads = %d", s.Threads)
	}
	return nil
}

func (s *Software) engine() *ligra.Engine {
	e := ligra.NewEngine()
	if s.Threads > 0 {
		e.Threads = s.Threads
	}
	return e
}

// Engine returns the harness view of the software framework. Stats report
// wall-clock seconds (the software reference point measures real time, so
// unlike the simulated engines its timings vary run to run and tighten
// when cells share cores).
//
// The report carries the run's stats dump, which harness.Report.Metric
// reads by record path: iterations and wall_seconds plus
// edges_traversed, the push/pull direction profile and frontier-size
// distribution. Distance outputs (bfs/sssp/cc) convert to Props with -1
// mapping to program.Inf; PageRank ranks and BC scores land in Scores.
func (s *Software) Engine() harness.Engine { return ligraEngine{s} }

type ligraEngine struct{ s *Software }

func (e ligraEngine) Name() string { return "ligra" }

func (e ligraEngine) Fingerprint() string {
	return fmt.Sprintf("ligra{threads=%d}", e.s.Threads)
}

// RunWorkload runs the cell on the framework's dedicated kernel for its
// workload. The kernel checks ctx between edgeMap iterations and, when
// cancelled, returns the partial report (Partial set) alongside the
// context error.
func (e ligraEngine) RunWorkload(ctx context.Context, w harness.Workload) (*harness.Report, error) {
	if err := e.s.Validate(); err != nil {
		return nil, err
	}
	le := e.s.engine()
	intr := sim.NewInterrupt()
	le.Interrupt = intr
	stop := sim.WatchContext(ctx, intr)
	defer stop()
	out := &harness.Report{}
	var dists []int64
	var res ligra.Result
	switch w.Name {
	case "bfs":
		dists, res = le.BFS(w.G, w.G.Transpose(), w.Root)
	case "sssp":
		dists, res = le.SSSP(w.G, nil, w.Root)
	case "cc":
		dists, res = le.CC(w.G)
	case "pr":
		out.Scores, res = le.PR(w.G, w.G.Transpose(), 0.85, prIters(w))
	case "bc":
		out.Scores, res = le.BC(w.G, w.G.Transpose(), w.Root)
	case SpillStressWorkload:
		// The software baseline implements the five paper workloads as
		// dedicated kernels; there is no generic asynchronous executor to
		// run delta PageRank on.
		return nil, fmt.Errorf("nova: %q is the NOVA spill-stress workload; run it on the nova engine", w.Name)
	default:
		return nil, fmt.Errorf("nova: unknown workload %q", w.Name)
	}
	if dists != nil {
		out.Props = make([]program.Prop, len(dists))
		for i, d := range dists {
			if d < 0 {
				out.Props[i] = program.Inf
			} else {
				out.Props[i] = program.Prop(d)
			}
		}
	}
	out.Stats = program.RunStats{SimSeconds: res.Seconds, EdgesTraversed: res.EdgesTraversed}
	out.Dump = le.StatsDump(res, map[string]string{
		"engine":   "ligra",
		"workload": w.Name,
		"graph":    w.G.Name,
	})
	label(out, e, w)
	if err := intr.Err(); err != nil {
		out.Partial, out.StopReason = true, string(sim.ReasonFor(err))
		return out, err
	}
	return out, nil
}

var _ harness.Engine = ligraEngine{}
