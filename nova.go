// Package nova is the public API of the NOVA reproduction: a simulated
// graph-processing accelerator with a decoupled vertex management
// architecture (HPCA 2025), its temporal-partitioning baseline
// (PolyGraph), and a Ligra-style software baseline, all runnable on the
// same vertex-centric programs.
//
// Quick start:
//
//	g := graph.GenRMAT("social", 16, 16, graph.DefaultRMAT, 1, 42)
//	acc, _ := nova.New(nova.DefaultConfig())
//	rep, _ := acc.RunContext(context.Background(), program.NewBFS(g.LargestOutDegreeVertex()), g)
//	fmt.Printf("%.2f GTEPS\n", rep.GTEPS(g))
//
// Each engine offers one way to run a named workload — its Engine, whose
// RunWorkload takes the cell and returns the engine-agnostic report —
// and the simulated ones also run custom programs through RunContext.
package nova

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"nova/graph"
	"nova/internal/core"
	"nova/internal/harness"
	"nova/internal/mem"
	"nova/internal/network"
	"nova/internal/ref"
	"nova/internal/sim"
	"nova/internal/stats"
	"nova/internal/trace"
	"nova/program"
)

// Config selects the NOVA system organization. The zero value is not
// valid; start from DefaultConfig.
//
// Config is the one declaration of NOVA's settings: its json tags are the
// novad wire names (API.md), the CLIs bind their flags straight into its
// fields, and the engine fingerprint renders its tagged fields. A zero
// size or empty name means the default (resolved in one place, so spelling
// a default out is the same configuration as omitting it); negative sizes
// are rejected. Fields tagged json:"-" are Go-only run budgets and hooks,
// neither wire-visible nor fingerprinted.
type Config struct {
	// GPNs is the number of graph processing nodes (Table II: 8 PEs,
	// one HBM2 stack and four DDR4 channels each).
	GPNs int `json:"gpns"`
	// PEsPerGPN overrides the per-GPN processing element count.
	PEsPerGPN int `json:"pes_per_gpn"`
	// CacheBytesPerPE sizes the MPU vertex cache (default 64 KiB).
	CacheBytesPerPE int `json:"cache_bytes_per_pe"`
	// SuperblockDim sets the tracker granularity (default 128 blocks).
	SuperblockDim int `json:"superblock_dim"`
	// ActiveBufferEntries sizes the VMU FIFO (default 80).
	ActiveBufferEntries int `json:"active_buffer_entries"`
	// Spill selects the vertex spilling mechanism: "overwrite" (NOVA's
	// design) or "fifo" (the Table I strawman).
	Spill string `json:"spill"`
	// Fabric selects the interconnect: "hierarchical" (Table II) or
	// "ideal" (infinite-bandwidth point-to-point, Fig. 9c).
	Fabric string `json:"fabric"`
	// Topology selects the inter-GPN topology of the hierarchical fabric:
	// "crossbar" (default, Table II), "ring", "mesh", or "torus".
	Topology string `json:"topology"`
	// CoalesceWindow enables the fabric's in-flight message coalescing
	// stage: cross-GPN batches wait up to this many core cycles for
	// further same-destination traffic to merge with (0 disables).
	CoalesceWindow int64 `json:"coalesce_window"`
	// CoalesceCapacity bounds buffered message entries per destination PE
	// while a coalescing window is open (0 = network default, 64).
	CoalesceCapacity int `json:"coalesce_capacity"`
	// OutOfCore enables the SSD-backed third memory tier (DESIGN.md §18):
	// vertex blocks whose SSD page falls outside each PE's resident
	// window pay a modeled page-in before the HBM2 access.
	OutOfCore bool `json:"out_of_core"`
	// SSDPreset picks the out-of-core device timing: "nvme" (default) or
	// "sata". Setting it without OutOfCore is an error.
	SSDPreset string `json:"ssd_preset"`
	// SSDResidentPages sizes each PE's DRAM-resident window in SSD pages
	// (0 = core default, 1024). Setting it without OutOfCore is an error.
	SSDResidentPages int `json:"ssd_resident_pages"`
	// Mapping selects spatial vertex placement: "random" (default),
	// "interleave", "load-balanced", or "locality" (Fig. 9b).
	Mapping string `json:"mapping"`
	// Seed drives the random vertex mapping.
	Seed int64 `json:"seed"`
	// MaxEvents bounds simulation length (0 = default budget). A budget,
	// not a setting: a run that exhausts it is partial, and novad takes it
	// per request (the top-level max_events), keying its cache on it
	// beside the fingerprint.
	MaxEvents uint64 `json:"-"`
	// StallTimeout arms the wall-clock stall watchdog (0 = the core
	// default, 30s; negative disables it). It cannot affect results, only
	// when a stuck run aborts.
	StallTimeout time.Duration `json:"-"`
	// Shards is the number of worker goroutines driving the per-GPN
	// engine shards (0 or 1 = sequential). Clamped to GPNs; results are
	// bit-identical at every setting, so it is the one wire field the
	// fingerprint leaves out (omitempty lets it drop from the rendering).
	Shards int `json:"shards,omitempty"`
	// Observer, when non-nil, is attached as the run's cooperative-stop
	// interrupt instead of a private one, so an external scheduler (the
	// novad service) can sample liveness beats while the simulation
	// executes and trip it from outside the context path. Observation
	// cannot affect results, so two runs differing only in Observer are
	// cache-equivalent.
	Observer *sim.Interrupt `json:"-"`
}

// DefaultConfig returns a single-GPN Table II system with random vertex
// mapping.
func DefaultConfig() Config {
	return Config{
		GPNs:                1,
		PEsPerGPN:           8,
		CacheBytesPerPE:     64 << 10,
		SuperblockDim:       128,
		ActiveBufferEntries: 80,
		Spill:               "overwrite",
		Fabric:              "hierarchical",
		Mapping:             "random",
		Seed:                1,
	}
}

// resolved returns c with every zero value that means "the default"
// spelled out. It is the one place NOVA's defaults are filled in:
// coreConfig builds from it and the fingerprint renders it, so a config
// that spells out a default and one that omits it run and cache alike.
// Negative sizes stay negative for core.Config.Validate to reject.
func (c Config) resolved() Config {
	d := core.DefaultConfig(c.GPNs)
	c.PEsPerGPN = cmp.Or(c.PEsPerGPN, d.PEsPerGPN)
	c.CacheBytesPerPE = cmp.Or(c.CacheBytesPerPE, d.CacheBytesPerPE)
	c.SuperblockDim = cmp.Or(c.SuperblockDim, d.SuperblockDim)
	c.ActiveBufferEntries = cmp.Or(c.ActiveBufferEntries, d.ActiveBufferEntries)
	c.Spill = cmp.Or(c.Spill, "overwrite")
	c.Fabric = cmp.Or(c.Fabric, "hierarchical")
	c.Topology = cmp.Or(c.Topology, "crossbar")
	c.Mapping = cmp.Or(c.Mapping, "random")
	if c.OutOfCore {
		c.SSDPreset = cmp.Or(c.SSDPreset, "nvme")
		c.SSDResidentPages = cmp.Or(c.SSDResidentPages, d.SSDResidentPages)
	}
	return c
}

func (c Config) coreConfig() (core.Config, error) {
	c = c.resolved()
	cc := core.DefaultConfig(c.GPNs)
	cc.PEsPerGPN = c.PEsPerGPN
	cc.CacheBytesPerPE = c.CacheBytesPerPE
	cc.SuperblockDim = c.SuperblockDim
	cc.ActiveBufferEntries = c.ActiveBufferEntries
	cc.PrefetchBatch = min(cc.PrefetchBatch, c.ActiveBufferEntries)
	cc.MaxEvents = c.MaxEvents
	cc.StallTimeout = c.StallTimeout
	cc.Shards = c.Shards
	cc.Observer = c.Observer
	switch c.Spill {
	case "overwrite":
		cc.Spill = core.SpillOverwrite
	case "fifo":
		cc.Spill = core.SpillFIFO
	default:
		return cc, fmt.Errorf("nova: unknown spill policy %q", c.Spill)
	}
	switch c.Fabric {
	case "hierarchical":
		cc.Fabric = core.FabricHierarchical
	case "ideal":
		cc.Fabric = core.FabricIdeal
	default:
		return cc, fmt.Errorf("nova: unknown fabric %q", c.Fabric)
	}
	topo, err := network.ParseTopoKind(c.Topology)
	if err != nil {
		return cc, fmt.Errorf("nova: %w", err)
	}
	cc.Topology = topo
	if c.CoalesceWindow < 0 {
		return cc, fmt.Errorf("nova: CoalesceWindow = %d", c.CoalesceWindow)
	}
	cc.CoalesceWindow = sim.Ticks(c.CoalesceWindow)
	cc.CoalesceCapacity = c.CoalesceCapacity
	if !c.OutOfCore {
		if c.SSDPreset != "" || c.SSDResidentPages != 0 {
			return cc, fmt.Errorf("nova: SSD options set without OutOfCore")
		}
		return cc, nil
	}
	cc.OutOfCore = true
	cc.SSDResidentPages = c.SSDResidentPages
	cc.SSD, err = ssdPreset(c.SSDPreset)
	return cc, err
}

// ssdPreset maps an SSD preset name to its device timing; the out-of-core
// NOVA tier and the extmem baseline share the presets.
func ssdPreset(name string) (mem.SSDConfig, error) {
	switch name {
	case "", "nvme":
		return mem.NVMeSSDConfig("ssd"), nil
	case "sata":
		return mem.SATASSDConfig("ssd"), nil
	}
	return mem.SSDConfig{}, fmt.Errorf("nova: unknown SSD preset %q", name)
}

func (c Config) partition(g *graph.CSR, gpns, pesPerGPN int) (*graph.Partition, error) {
	parts := gpns * pesPerGPN
	switch c.Mapping {
	case "", "random":
		return graph.PartitionRandom(g.NumVertices(), parts, c.Seed), nil
	case "interleave":
		return graph.PartitionInterleave(g.NumVertices(), parts), nil
	case "load-balanced":
		return graph.PartitionLoadBalanced(g, parts), nil
	case "locality":
		// Keep communities on one GPN (saving crossbar traffic) while
		// spreading them over its PEs for parallelism.
		return graph.PartitionLocalityHierarchical(g, gpns, pesPerGPN), nil
	default:
		return nil, fmt.Errorf("nova: unknown mapping %q", c.Mapping)
	}
}

// Accelerator runs programs on the simulated NOVA machine: named
// workloads through Engine, custom programs through RunContext.
type Accelerator struct {
	cfg Config
}

// New validates the configuration and returns an Accelerator.
func New(cfg Config) (*Accelerator, error) {
	cc, err := cfg.coreConfig()
	if err != nil {
		return nil, err
	}
	if err := cc.Validate(); err != nil {
		return nil, err
	}
	if _, err := cfg.partition(graph.FromEdges("probe", 1, nil), cc.GPNs, cc.PEsPerGPN); err != nil {
		return nil, err
	}
	return &Accelerator{cfg: cfg}, nil
}

// Report is the outcome of one accelerator run.
type Report struct {
	// Props holds the final vertex properties.
	Props []program.Prop
	// Stats is the engine-agnostic summary.
	Stats program.RunStats
	// Cycles is the simulated cycle count at 2 GHz.
	Cycles uint64

	// EdgeUtilization is the achieved fraction of edge-memory bandwidth.
	EdgeUtilization float64
	// Vertex-memory bandwidth fractions (Fig. 10 bars).
	VertexUsefulFrac   float64
	VertexWriteFrac    float64
	VertexWastefulFrac float64
	// Time attribution (Fig. 6): overfetch overhead vs processing.
	ProcessingSeconds float64
	OverheadSeconds   float64
	// CacheHitRate of the MPU vertex caches.
	CacheHitRate float64
	// OnChipBytes is the modeled on-chip storage.
	OnChipBytes int64
	// Spills, DirectPushes, SpillWrites, StaleRetrievals and
	// MetadataBytes instrument the Table I spilling trade-offs.
	Spills          uint64
	DirectPushes    uint64
	SpillWrites     uint64
	StaleRetrievals uint64
	MetadataBytes   uint64
	// NetworkBytes and NetworkInterBytes count fabric traffic;
	// NetworkMessagesCoalesced and NetworkBytesSaved instrument the
	// fabric's in-flight coalescing stage, and NetworkAvgHops is the mean
	// inter-GPN links traversed per cross-GPN message.
	NetworkBytes             uint64
	NetworkInterBytes        uint64
	NetworkMessagesCoalesced uint64
	NetworkBytesSaved        uint64
	NetworkAvgHops           float64
	// LoadImbalance is max(per-PE propagations)/mean (1.0 = balanced).
	LoadImbalance float64
	// Out-of-core tier traffic (all zero unless Config.OutOfCore):
	// partition page-in events, their page-rounded volume, and the SSD
	// latency they exposed, in cycles.
	PartitionLoads uint64
	BytesPaged     uint64
	IOStallCycles  uint64
	// Shards is the worker-goroutine count the run executed with;
	// Windows counts conservative synchronization windows, and the two
	// wall-clock fields split host time between in-window execution and
	// barrier synchronization (all zero-window for 1-GPN systems).
	Shards             int
	Windows            uint64
	WindowWallSeconds  float64
	BarrierWallSeconds float64
	// Partial marks a salvaged report: the run stopped early (cancelled,
	// deadline, budget, or watchdog stall) and the stats cover only the
	// work completed before the stop. StopReason names the cause
	// ("cancelled", "deadline", "budget", "stalled").
	Partial    bool
	StopReason string
	// Dump is the full hierarchical statistics dump (per-PE, per-channel,
	// per-link detail); the flat fields above are its root-level records.
	Dump *stats.Dump
}

// GTEPS returns effective throughput: sequential-work edges per second in
// billions (the paper's headline metric), computed against the graph's
// total edge count as a neutral denominator.
func (r *Report) GTEPS(g *graph.CSR) float64 {
	if r.Stats.SimSeconds <= 0 {
		return 0
	}
	return float64(g.NumEdges()) / r.Stats.SimSeconds / 1e9
}

// RunContext executes the custom program p on g and returns a detailed
// report; named workloads run through Engine. Cancellation is observed
// cooperatively (each engine shard polls every few thousand events, the
// cluster at every window barrier), so the simulation stops within one
// poll interval. On a cooperative stop — cancellation, deadline, event
// budget, or watchdog stall — RunContext salvages the statistics so far
// and returns BOTH a Report marked Partial (with its StopReason) and the
// error.
func (a *Accelerator) RunContext(ctx context.Context, p program.Program, g *graph.CSR) (*Report, error) {
	return a.simulate(ctx, p, g, nil)
}

// simulate builds a private system for g and runs p on it. A non-nil
// traceOut records simulator activity and receives it as Chrome
// trace-event JSON, for a partial run as well as a complete one.
func (a *Accelerator) simulate(ctx context.Context, p program.Program, g *graph.CSR, traceOut io.Writer) (*Report, error) {
	cc, err := a.cfg.coreConfig()
	if err != nil {
		return nil, err
	}
	part, err := a.cfg.partition(g, cc.GPNs, cc.PEsPerGPN)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(cc, g, part)
	if err != nil {
		return nil, err
	}
	var tr *trace.Tracer
	if traceOut != nil {
		tr = trace.New(cc.ClockHz)
		sys.SetTracer(tr)
	}
	res, err := sys.Run(ctx, p)
	if res == nil {
		return nil, err
	}
	if tr != nil {
		if werr := tr.WriteJSON(traceOut); werr != nil {
			return nil, fmt.Errorf("nova: writing trace: %w", werr)
		}
	}
	return reportFromCore(res), err
}

func avgHops(res *core.Result) float64 {
	if res.Net.InterMessages == 0 {
		return 0
	}
	return float64(res.Net.HopsSum) / float64(res.Net.InterMessages)
}

func reportFromCore(res *core.Result) *Report {
	u, w, waste := res.VertexBWFractions()
	return &Report{
		Props:                    res.Props,
		Stats:                    res.Stats,
		Cycles:                   uint64(res.Ticks),
		EdgeUtilization:          res.EdgeUtilization,
		VertexUsefulFrac:         u,
		VertexWriteFrac:          w,
		VertexWastefulFrac:       waste,
		ProcessingSeconds:        res.ProcessingSeconds,
		OverheadSeconds:          res.OverheadSeconds,
		CacheHitRate:             res.CacheHitRate,
		OnChipBytes:              res.OnChipBytes,
		Spills:                   res.VMU.Spills,
		DirectPushes:             res.VMU.DirectPushes,
		SpillWrites:              res.VMU.SpillWrites,
		StaleRetrievals:          res.VMU.StaleRetrievals,
		MetadataBytes:            res.VMU.MetadataBytes,
		NetworkBytes:             res.Net.Bytes,
		NetworkInterBytes:        res.Net.InterBytes,
		NetworkMessagesCoalesced: res.Net.Coalesced,
		NetworkBytesSaved:        res.Net.BytesSaved,
		NetworkAvgHops:           avgHops(res),
		LoadImbalance:            res.LoadImbalance(),
		PartitionLoads:           res.PartitionLoads,
		BytesPaged:               res.BytesPaged,
		IOStallCycles:            uint64(res.IOStallTicks),
		Shards:                   res.Shards,
		Windows:                  res.Windows,
		WindowWallSeconds:        res.WindowWallSeconds,
		BarrierWallSeconds:       res.BarrierWallSeconds,
		Partial:                  res.Partial,
		StopReason:               string(res.StopReason),
		Dump:                     res.Dump,
	}
}

// RunTraced runs one single-phase workload cell exactly as
// Engine().RunWorkload does, while recording simulator activity (MGU
// propagation spans, VMU prefetch batches, drains, BSP barriers), and
// writes it to out as Chrome trace-event JSON (chrome://tracing,
// Perfetto). It rejects "bc", whose two phases would share one timeline.
func (a *Accelerator) RunTraced(ctx context.Context, w harness.Workload, out io.Writer) (*harness.Report, error) {
	if w.Name == "bc" {
		return nil, fmt.Errorf("nova: RunTraced records one single-phase run; %q has two phases", w.Name)
	}
	return novaEngine{a, out}.RunWorkload(ctx, w)
}

// Engine returns the harness view of the accelerator, the way to run a
// named workload. Each RunWorkload call builds a private core.System, so
// the engine is safe for concurrent use by harness.Pool workers.
//
// The report carries the run's stats dump (Report.Dump), which
// harness.Report.Metric reads by record path: the root-level keys
// (cycles, edge_utilization, vertex_useful_frac, vertex_write_frac,
// vertex_wasteful_frac, processing_seconds, overhead_seconds,
// cache_hit_rate, onchip_bytes, spills, direct_pushes, spill_writes,
// stale_retrievals, metadata_bytes, network_bytes, network_inter_bytes,
// load_imbalance — see the Metric* constants) plus hierarchical detail
// (gpn0.pe3.vmu.spills, network.gpn0.p2p_utilization, …). The two-phase
// "bc" workload reports Stats only.
func (a *Accelerator) Engine() harness.Engine { return novaEngine{acc: a} }

// novaEngine adapts an Accelerator to harness.Engine; a non-nil trace
// receives the run's Chrome trace (RunTraced).
type novaEngine struct {
	acc   *Accelerator
	trace io.Writer
}

func (e novaEngine) Name() string { return "nova" }

// Fingerprint renders the resolved configuration's wire fields as JSON:
// every field that can affect results, and nothing else (Shards is zeroed
// and omitted; the json:"-" fields never render).
func (e novaEngine) Fingerprint() string {
	c := e.acc.cfg.resolved()
	c.Shards = 0
	b, _ := json.Marshal(c) // plain values only: it cannot fail
	return "nova" + string(b)
}

func (e novaEngine) RunWorkload(ctx context.Context, w harness.Workload) (*harness.Report, error) {
	acc := e.acc
	if w.MaxEvents > 0 {
		cfg := acc.cfg
		cfg.MaxEvents = w.MaxEvents
		acc = &Accelerator{cfg: cfg}
	}
	return runWorkload(ctx, e, w, func(ctx context.Context, p program.Program, g *graph.CSR) (*harness.Report, error) {
		rep, err := acc.simulate(ctx, p, g, e.trace)
		if rep == nil {
			return nil, err
		}
		return &harness.Report{
			Props:              rep.Props,
			Stats:              rep.Stats,
			Dump:               rep.Dump,
			Shards:             rep.Shards,
			WindowWallSeconds:  rep.WindowWallSeconds,
			BarrierWallSeconds: rep.BarrierWallSeconds,
			Partial:            rep.Partial,
			StopReason:         rep.StopReason,
		}, err
	})
}

var _ harness.Engine = novaEngine{}

// SequentialEdges exposes the work-efficiency denominator for a workload
// on a graph (Beamer's metric; see Section II-A).
func SequentialEdges(g *graph.CSR, root graph.VertexID, workload string, prIters int) int64 {
	return ref.SequentialEdges(g, root, workload, prIters)
}

// Verify checks accelerator output against the sequential oracles. It
// returns nil when the distances (BFS/SSSP) or labels (CC) match exactly.
func Verify(workload string, g *graph.CSR, root graph.VertexID, props []program.Prop) error {
	var want []int64
	switch workload {
	case "bfs":
		want = ref.BFS(g, root)
	case "sssp":
		want = ref.SSSP(g, root)
	case "cc":
		want = ref.CC(g)
	default:
		return fmt.Errorf("nova: Verify does not support workload %q", workload)
	}
	if len(props) != len(want) {
		return fmt.Errorf("nova: Verify: got %d properties, want %d", len(props), len(want))
	}
	for v := range want {
		got := int64(props[v])
		if props[v] == program.Inf {
			got = -1
		}
		if got != want[v] {
			return fmt.Errorf("nova: vertex %d: got %d, want %d", v, got, want[v])
		}
	}
	return nil
}
