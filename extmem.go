package nova

import (
	"cmp"
	"context"
	"fmt"

	"nova/graph"
	"nova/internal/extmem"
	"nova/internal/harness"
	"nova/program"
)

// ExternalMemory runs programs on the external-memory baseline: a
// PartitionedVC/GridGraph-style out-of-core framework that keeps vertex
// state in DRAM and streams interval edge partitions from SSD through a
// bounded partition cache. It runs asynchronous programs: named workloads
// (bfs, sssp, cc, prdelta) through Engine, custom ones through
// RunContext. Bulk-synchronous programs are rejected — interval-at-a-time
// processing is the async trade-off the NOVA spill/recovery comparison is
// about. Its json tags are the novad
// "extmem" block's wire names (API.md); zero sizes mean the defaults and
// negative ones are rejected.
type ExternalMemory struct {
	// RAMBytes is the DRAM partition-cache budget (default 256 MiB).
	RAMBytes int64 `json:"ram_bytes"`
	// PartitionEdges is the target edges per vertex interval (default 1 Mi).
	PartitionEdges int64 `json:"partition_edges"`
	// SSDPreset picks the paging device: "nvme" (default) or "sata".
	SSDPreset string `json:"ssd_preset"`
	// MaxRounds bounds the outer loop (0 = default). A budget, like
	// Config.MaxEvents: Go API only, and outside the fingerprint.
	MaxRounds int `json:"-"`
}

func (b *ExternalMemory) config() (extmem.Config, error) {
	cfg := extmem.DefaultConfig()
	cfg.RAMBytes = cmp.Or(b.RAMBytes, cfg.RAMBytes)
	cfg.PartitionEdges = cmp.Or(b.PartitionEdges, cfg.PartitionEdges)
	cfg.MaxRounds = b.MaxRounds
	ssd, err := ssdPreset(b.SSDPreset)
	if err != nil {
		return cfg, err
	}
	cfg.SSD = ssd
	return cfg, cfg.Validate()
}

// Validate reports the first configuration error — an unknown SSD preset
// or a negative size — so callers can reject a configuration before any
// run; RunContext and the Engine fail on the same error.
func (b *ExternalMemory) Validate() error {
	_, err := b.config()
	return err
}

// RunContext executes the custom program p on g under the external-memory
// model, polling ctx cooperatively per round and per partition. The
// report carries the run's props, stats and dump; Metric reads the
// out-of-core cost breakdown from the dump (MetricCycles,
// MetricIOStallTicks, MetricPartitionLoads, …). On a cooperative stop it
// returns BOTH a partial report (Partial set, with its StopReason) and
// the error.
func (b *ExternalMemory) RunContext(ctx context.Context, p program.Program, g *graph.CSR) (*harness.Report, error) {
	cfg, err := b.config()
	if err != nil {
		return nil, err
	}
	res, err := extmem.Run(ctx, cfg, g, p)
	if res == nil {
		return nil, err
	}
	return &harness.Report{Props: res.Props, Stats: res.Stats, Dump: res.Dump,
		Partial: res.Partial, StopReason: string(res.StopReason)}, err
}

// Engine returns the harness view of the external-memory baseline, the
// way to run a named workload. Each RunWorkload call owns a private
// model, so the engine is safe for concurrent use by harness.Pool
// workers.
//
// The report carries the run's stats dump, which harness.Report.Metric
// reads by record path: root-level keys cycles, compute_cycles,
// io_stall_ticks, partition_loads, bytes_paged, cache_hit_rate,
// partitions, rounds, evictions plus per-partition detail (part0.loads,
// …). Workloads pr and bc are bulk-synchronous and rejected.
func (b *ExternalMemory) Engine() harness.Engine { return extmemEngine{b} }

type extmemEngine struct{ b *ExternalMemory }

func (e extmemEngine) Name() string { return "extmem" }

func (e extmemEngine) Fingerprint() string {
	cfg, err := e.b.config()
	if err != nil {
		return fmt.Sprintf("extmem{invalid: %v}", err)
	}
	return fmt.Sprintf("extmem{ram=%d part=%d ssd=%s qd=%d}",
		cfg.RAMBytes, cfg.PartitionEdges, cmp.Or(e.b.SSDPreset, "nvme"), cfg.SSD.QueueDepth)
}

func (e extmemEngine) RunWorkload(ctx context.Context, w harness.Workload) (*harness.Report, error) {
	switch w.Name {
	case "pr", "bc":
		return nil, fmt.Errorf("nova: workload %q is bulk-synchronous; the extmem engine runs asynchronous workloads only (bfs, sssp, cc, prdelta)", w.Name)
	}
	return runWorkload(ctx, e, w, e.b.RunContext)
}

var _ harness.Engine = extmemEngine{}
