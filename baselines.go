package nova

import (
	"context"
	"fmt"

	"nova/graph"
	"nova/internal/harness"
	"nova/internal/ligra"
	"nova/internal/polygraph"
	"nova/internal/ref"
	"nova/internal/sim"
	"nova/internal/stats"
	"nova/program"
)

// PolyGraphBaseline runs programs on the temporal-partitioning baseline
// accelerator model. It implements program.Runner. Its json tags are the
// novad "polygraph" block's wire names (API.md); zero values mean the
// defaults and negative ones are rejected.
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

// PolyGraphReport extends the engine-agnostic stats with the temporal-
// partitioning breakdown of Figs. 2 and 6.
type PolyGraphReport struct {
	Props               []program.Prop
	Stats               program.RunStats
	ProcessingSeconds   float64
	SwitchingSeconds    float64
	InefficiencySeconds float64
	SliceCount          int
	Rounds              int
	SlicePasses         int
	EdgeBandwidthShare  float64
	// Dump is the full hierarchical statistics dump (per-slice schedule,
	// traffic split); the flat fields above are its root-level records.
	Dump *stats.Dump
	// Partial marks a salvaged report from a run that stopped early;
	// StopReason classifies why ("cancelled", "deadline", "budget").
	Partial    bool
	StopReason string
}

// GTEPS returns effective throughput against the graph's edge count.
func (r *PolyGraphReport) GTEPS(g *graph.CSR) float64 {
	if r.Stats.SimSeconds <= 0 {
		return 0
	}
	return float64(g.NumEdges()) / r.Stats.SimSeconds / 1e9
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
// Run fails on the same error.
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

// Run executes p on g under the PolyGraph model.
func (b *PolyGraphBaseline) Run(p program.Program, g *graph.CSR) (*PolyGraphReport, error) {
	return b.RunContext(context.Background(), p, g)
}

// RunContext executes p on g, polling ctx cooperatively between rounds
// and slice activations. On a cooperative stop (cancellation, deadline,
// round-budget exhaustion) it returns BOTH a partial report (Partial set,
// with its StopReason) and the error.
func (b *PolyGraphBaseline) RunContext(ctx context.Context, p program.Program, g *graph.CSR) (*PolyGraphReport, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	res, err := polygraph.Run(ctx, b.config(), g, p)
	if res == nil {
		return nil, err
	}
	return &PolyGraphReport{
		Props:               res.Props,
		Stats:               res.Stats,
		ProcessingSeconds:   res.ProcessingSeconds,
		SwitchingSeconds:    res.SwitchingSeconds,
		InefficiencySeconds: res.InefficiencySeconds,
		SliceCount:          res.SliceCount,
		Rounds:              res.Rounds,
		SlicePasses:         res.SlicePasses,
		EdgeBandwidthShare:  res.EdgeBandwidthShare,
		Dump:                res.Dump,
		Partial:             res.Partial,
		StopReason:          string(res.StopReason),
	}, err
}

// RunProgram implements program.Runner.
func (b *PolyGraphBaseline) RunProgram(p program.Program, g *graph.CSR) ([]program.Prop, program.RunStats, error) {
	rep, err := b.Run(p, g)
	if err != nil {
		return nil, program.RunStats{}, err
	}
	return rep.Props, rep.Stats, nil
}

// RunProgramContext is RunProgram with cooperative cancellation; on a
// cooperative stop the partial props and stats come back alongside the
// error so multi-phase drivers can salvage what completed.
func (b *PolyGraphBaseline) RunProgramContext(ctx context.Context, p program.Program, g *graph.CSR) ([]program.Prop, program.RunStats, error) {
	rep, err := b.RunContext(ctx, p, g)
	if rep == nil {
		return nil, program.RunStats{}, err
	}
	return rep.Props, rep.Stats, err
}

var _ program.Runner = (*PolyGraphBaseline)(nil)

// Engine returns the harness view of the PolyGraph baseline. Each
// RunWorkload call owns a private simulation, so the engine is safe for
// concurrent use by harness.Pool workers.
//
// The report carries the run's stats dump (the PolyGraphReport.Dump
// tree), which harness.Report.Metric reads by record path: root-level
// keys processing_seconds, switching_seconds, inefficiency_seconds,
// slice_count, rounds, slice_passes, edge_bw_share plus traffic counters
// and per-slice detail (slice0.passes, …). The two-phase "bc" workload
// reports Stats only.
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
	prIters := w.PRIters
	if prIters <= 0 {
		prIters = 10
	}
	out := &harness.Report{
		Engine:          e.Name(),
		Fingerprint:     e.Fingerprint(),
		Workload:        w.Name,
		Tier:            w.Tier,
		SequentialEdges: ref.SequentialEdges(w.G, w.Root, w.Name, prIters),
	}
	if w.Name == "bc" {
		gT := w.GT
		if gT == nil {
			gT = w.G.Transpose()
		}
		scores, stats, err := program.RunBC(ctxRunner{ctx, e.b}, w.G, gT, w.Root)
		if err != nil {
			reason := sim.ReasonFor(err)
			if reason == "" {
				return nil, err
			}
			out.Scores, out.Stats = scores, stats
			out.Partial, out.StopReason = true, string(reason)
			return out, err
		}
		out.Scores, out.Stats = scores, stats
		return out, nil
	}
	p, err := workloadProgram(w.Name, w.Root, prIters)
	if err != nil {
		return nil, err
	}
	rep, err := e.b.RunContext(ctx, p, w.G)
	if rep == nil {
		return nil, err
	}
	out.Props, out.Stats = rep.Props, rep.Stats
	out.Dump = rep.Dump
	out.Partial, out.StopReason = rep.Partial, rep.StopReason
	return out, err
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

// SoftwareReport is the outcome of one software run.
type SoftwareReport struct {
	// Seconds is wall-clock time; EdgesTraversed counts update attempts.
	Seconds        float64
	EdgesTraversed int64
	Iterations     int
	// Dists/Labels/Scores hold workload-specific outputs (one non-nil).
	Dists  []int64
	Ranks  []float64
	Scores []float64
	// Dump is the statistics dump (wall-clock and traversal counts are
	// marked volatile, so dump diffs skip them by default).
	Dump *stats.Dump
	// Partial marks a salvaged report: the kernel stopped between edgeMap
	// iterations because its context was cancelled. StopReason classifies
	// why ("cancelled", "deadline").
	Partial    bool
	StopReason string
}

// GTEPS returns traversed giga-edges per second.
func (r *SoftwareReport) GTEPS() float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return float64(r.EdgesTraversed) / r.Seconds / 1e9
}

// Validate reports a negative thread count, so callers can reject it
// before any run; RunWorkload fails on the same error.
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

// RunWorkload executes one of the five paper workloads by name ("bfs",
// "sssp", "cc", "pr", "bc"). gT (the transpose) is required for bfs, pr
// and bc; prIters configures PageRank.
func (s *Software) RunWorkload(name string, g, gT *graph.CSR, root graph.VertexID, prIters int) (*SoftwareReport, error) {
	return s.RunWorkloadContext(context.Background(), name, g, gT, root, prIters)
}

// RunWorkloadContext is RunWorkload with cooperative cancellation: the
// kernel checks ctx between edgeMap iterations and, when cancelled,
// returns the partial report (Partial set) alongside the context error.
func (s *Software) RunWorkloadContext(ctx context.Context, name string, g, gT *graph.CSR, root graph.VertexID, prIters int) (*SoftwareReport, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	e := s.engine()
	intr := sim.NewInterrupt()
	e.Interrupt = intr
	stop := sim.WatchContext(ctx, intr)
	defer stop()
	var rep *SoftwareReport
	var res ligra.Result
	switch name {
	case "bfs":
		d, r := e.BFS(g, gT, root)
		rep, res = &SoftwareReport{Dists: d}, r
	case "sssp":
		d, r := e.SSSP(g, nil, root)
		rep, res = &SoftwareReport{Dists: d}, r
	case "cc":
		d, r := e.CC(g)
		rep, res = &SoftwareReport{Dists: d}, r
	case "pr":
		if prIters <= 0 {
			prIters = 10
		}
		ranks, r := e.PR(g, gT, 0.85, prIters)
		rep, res = &SoftwareReport{Ranks: ranks}, r
	case "bc":
		sc, r := e.BC(g, gT, root)
		rep, res = &SoftwareReport{Scores: sc}, r
	case SpillStressWorkload:
		// The software baseline implements the five paper workloads as
		// dedicated kernels; there is no generic asynchronous executor to
		// run delta PageRank on.
		return nil, fmt.Errorf("nova: %q is the NOVA spill-stress workload; run it on the nova engine", name)
	default:
		return nil, fmt.Errorf("nova: unknown workload %q", name)
	}
	rep.Seconds, rep.EdgesTraversed, rep.Iterations = res.Seconds, res.EdgesTraversed, res.Iterations
	rep.Dump = e.StatsDump(res, map[string]string{
		"engine":   "ligra",
		"workload": name,
		"graph":    g.Name,
	})
	if err := intr.Err(); err != nil {
		rep.Partial = true
		rep.StopReason = string(sim.ReasonFor(err))
		return rep, err
	}
	return rep, nil
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

func (e ligraEngine) RunWorkload(ctx context.Context, w harness.Workload) (*harness.Report, error) {
	prIters := w.PRIters
	if prIters <= 0 {
		prIters = 10
	}
	gT := w.GT
	if gT == nil {
		gT = w.G.Transpose()
	}
	rep, err := e.s.RunWorkloadContext(ctx, w.Name, w.G, gT, w.Root, prIters)
	if rep == nil {
		return nil, err
	}
	out := &harness.Report{
		Engine:          e.Name(),
		Fingerprint:     e.Fingerprint(),
		Workload:        w.Name,
		Tier:            w.Tier,
		SequentialEdges: ref.SequentialEdges(w.G, w.Root, w.Name, prIters),
		Stats: program.RunStats{
			SimSeconds:     rep.Seconds,
			EdgesTraversed: rep.EdgesTraversed,
		},
		Dump: rep.Dump,
	}
	if rep.Dists != nil {
		out.Props = make([]program.Prop, len(rep.Dists))
		for i, d := range rep.Dists {
			if d < 0 {
				out.Props[i] = program.Inf
			} else {
				out.Props[i] = program.Prop(d)
			}
		}
	}
	switch {
	case rep.Ranks != nil:
		out.Scores = rep.Ranks
	case rep.Scores != nil:
		out.Scores = rep.Scores
	}
	out.Partial, out.StopReason = rep.Partial, rep.StopReason
	return out, err
}

var _ harness.Engine = ligraEngine{}
