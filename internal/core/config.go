// Package core implements the NOVA accelerator microarchitecture of
// Section III: graph processing nodes (GPNs) built from processing
// elements (PEs), each PE containing a message processing unit (MPU), a
// vertex management unit (VMU) and a message generation unit (MGU), backed
// by per-PE HBM2 vertex channels and per-GPN DDR4 edge channels, connected
// by a point-to-point intra-GPN fabric and an inter-GPN crossbar.
package core

import (
	"fmt"
	"time"

	"nova/internal/mem"
	"nova/internal/network"
	"nova/internal/resource"
	"nova/internal/sim"
)

// DefaultStallTimeout is the watchdog interval used when
// Config.StallTimeout is zero: long enough that no healthy cell at any
// supported scale trips it, short enough to catch a livelocked run well
// before a CI job timeout does.
const DefaultStallTimeout = 30 * time.Second

// SpillPolicy selects how the VMU handles active vertices that do not fit
// in the on-chip active buffer (Table I).
type SpillPolicy int

const (
	// SpillOverwrite is NOVA's design: the spilled vertex simply
	// overwrites its row in the off-chip vertex set (no extra write) and
	// the tracker records its block at superblock granularity.
	SpillOverwrite SpillPolicy = iota
	// SpillFIFO is the strawman alternative: spilled activations are
	// appended to an off-chip FIFO with explicit vertex addresses. Spills
	// cost an extra write, entries are never coalesced, and stale
	// duplicates cause redundant propagation.
	SpillFIFO
)

func (s SpillPolicy) String() string {
	if s == SpillFIFO {
		return "fifo"
	}
	return "overwrite"
}

// FabricKind selects the interconnect model (Fig. 9c).
type FabricKind int

const (
	// FabricHierarchical is Table II's fabric: intra-GPN point-to-point
	// links plus an inter-GPN crossbar.
	FabricHierarchical FabricKind = iota
	// FabricIdeal is a latency-only, infinite-bandwidth network.
	FabricIdeal
)

// Config describes one NOVA system. DefaultConfig gives Table II values.
type Config struct {
	// GPNs is the number of graph processing nodes.
	GPNs int
	// PEsPerGPN is the number of processing elements per GPN.
	PEsPerGPN int
	// ClockHz is the core frequency.
	ClockHz float64
	// VertexBytes is the size of a vertex record
	// (cur_prop, next_prop, active flags), a power of two.
	VertexBytes int
	// BlockBytes is the vertex-memory atom (HBM2: 32 B); it is both the
	// cache line size and the tracker's block granularity. A power of
	// two no smaller than VertexBytes.
	BlockBytes int
	// CacheBytesPerPE is the MPU's direct-mapped vertex cache capacity.
	CacheBytesPerPE int
	// SuperblockDim is the number of blocks grouped per tracker counter.
	SuperblockDim int
	// ActiveBufferEntries is the VMU FIFO depth (one block per entry).
	ActiveBufferEntries int
	// PrefetchBatch is how many blocks one prefetch reads from a
	// superblock; prefetching triggers when at least this many entries
	// are free.
	PrefetchBatch int
	// ReduceFUs is reductions per cycle per PE (Table II: 16 per GPN).
	ReduceFUs int
	// PropagateFUs is propagations per cycle per PE (48 per GPN).
	PropagateFUs int
	// MSHRs bounds outstanding vertex-memory reads per PE — the
	// vertex-level parallelism that hides DRAM latency.
	MSHRs int
	// MGUPipelineDepth bounds concurrently in-flight active-block
	// propagations per PE.
	MGUPipelineDepth int
	// MessageBytes is the network message size ⟨u, δ⟩.
	MessageBytes int
	// EdgeBytes is the stored size of one edge.
	EdgeBytes int
	// VertexChannel and EdgeChannel time the off-chip memories; one
	// vertex channel per PE, EdgeChannelsPerGPN edge channels per GPN.
	VertexChannel      mem.ChannelConfig
	EdgeChannel        mem.ChannelConfig
	EdgeChannelsPerGPN int
	// Fabric selects the interconnect model; P2P and Crossbar configure
	// the hierarchical fabric.
	Fabric   FabricKind
	P2P      network.P2PConfig
	Crossbar network.CrossbarConfig
	// CoalesceWindow arms the fabric's in-flight coalescing stage: a
	// cross-GPN message batch waits up to this many ticks for further
	// same-destination batches to merge with before traversing the
	// crossbar (0 disables). Each destination PE's buffer holds up to
	// network.DefaultCoalesceCapacity message entries.
	CoalesceWindow sim.Ticks
	// Spill selects the VMU spilling mechanism.
	Spill SpillPolicy
	// OutOfCore arms the SSD-backed third memory tier (DESIGN.md §18):
	// each PE's off-chip vertex region beyond a resident window of
	// SSDResidentPages SSD pages lives on the GPN's SSD, and a VMU
	// recovery read that misses the window pays a page-in through the
	// device's latency/bandwidth/queue-depth model before its vertex-
	// channel access issues.
	OutOfCore bool
	// SSD times the per-GPN device (zero Name selects the NVMe preset).
	SSD mem.SSDConfig
	// SSDResidentPages is the per-PE resident-window capacity in SSD
	// pages, direct-mapped for determinism.
	SSDResidentPages int
	// MaxEvents aborts runaway simulations (0 = default budget).
	MaxEvents uint64
	// StallTimeout arms the wall-clock watchdog: if no event executes and
	// no barrier advances for this long, the run aborts with a stall
	// diagnostic. 0 selects DefaultStallTimeout; negative disables the
	// watchdog.
	StallTimeout time.Duration
	// Shards is the number of worker goroutines executing the per-GPN
	// engine shards (0 means 1, i.e. fully sequential). Clamped to GPNs;
	// results are bit-identical at every setting.
	Shards int
	// Observer, when non-nil, is the cooperative-stop interrupt Run
	// attaches instead of building a private one. An external scheduler
	// supplies it to sample liveness beats (sim.Interrupt.Beats) while
	// the run executes — the progress signal a serving layer streams to
	// clients — and to Trip the run from outside the context path. Like
	// StallTimeout it is excluded from every fingerprint: observation
	// cannot change simulation results, only when a run stops.
	Observer *sim.Interrupt
}

// DefaultConfig returns the Table II system: 8 PEs at 2 GHz per GPN, one
// HBM2 channel per PE for vertices, four DDR4 channels per GPN for edges,
// 64 KiB cache per PE, superblock dimension 128 and an 80-entry active
// buffer.
func DefaultConfig(gpns int) Config {
	return Config{
		GPNs:                gpns,
		PEsPerGPN:           8,
		ClockHz:             2e9,
		VertexBytes:         16,
		BlockBytes:          32,
		CacheBytesPerPE:     64 << 10,
		SuperblockDim:       128,
		ActiveBufferEntries: 80,
		PrefetchBatch:       16,
		ReduceFUs:           2,
		PropagateFUs:        6,
		MSHRs:               128,
		MGUPipelineDepth:    8,
		MessageBytes:        8,
		EdgeBytes:           8,
		VertexChannel:       mem.HBM2ChannelConfig("hbm2"),
		EdgeChannel:         mem.DDR4ChannelConfig("ddr4"),
		EdgeChannelsPerGPN:  4,
		Fabric:              FabricHierarchical,
		P2P:                 network.DefaultP2PConfig(),
		Crossbar:            network.DefaultCrossbarConfig(),
		Spill:               SpillOverwrite,
		SSD:                 mem.NVMeSSDConfig("ssd"),
		SSDResidentPages:    1024,
	}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.GPNs <= 0:
		return fmt.Errorf("core: GPNs = %d", c.GPNs)
	case c.PEsPerGPN <= 0:
		return fmt.Errorf("core: PEsPerGPN = %d", c.PEsPerGPN)
	case c.ClockHz <= 0:
		return fmt.Errorf("core: ClockHz = %v", c.ClockHz)
	case c.VertexBytes <= 0 || c.BlockBytes <= 0:
		return fmt.Errorf("core: VertexBytes %d and BlockBytes %d must be positive", c.VertexBytes, c.BlockBytes)
	case !isPow2(c.VertexBytes) || !isPow2(c.BlockBytes):
		return fmt.Errorf("core: VertexBytes %d and BlockBytes %d must be powers of two", c.VertexBytes, c.BlockBytes)
	case c.BlockBytes%c.VertexBytes != 0:
		return fmt.Errorf("core: BlockBytes %d not a multiple of VertexBytes %d", c.BlockBytes, c.VertexBytes)
	case c.CacheBytesPerPE < c.BlockBytes || c.CacheBytesPerPE%c.BlockBytes != 0:
		return fmt.Errorf("core: cache %d B incompatible with block %d B", c.CacheBytesPerPE, c.BlockBytes)
	case c.SuperblockDim <= 0:
		return fmt.Errorf("core: SuperblockDim = %d", c.SuperblockDim)
	case c.ActiveBufferEntries <= 0 || c.PrefetchBatch <= 0 || c.PrefetchBatch > c.ActiveBufferEntries:
		return fmt.Errorf("core: buffer %d / batch %d invalid", c.ActiveBufferEntries, c.PrefetchBatch)
	case c.ReduceFUs <= 0 || c.PropagateFUs <= 0 || c.MSHRs <= 0 || c.MGUPipelineDepth <= 0:
		return fmt.Errorf("core: functional unit counts must be positive")
	case c.MessageBytes <= 0 || c.EdgeBytes <= 0:
		return fmt.Errorf("core: MessageBytes/EdgeBytes must be positive")
	case c.EdgeChannelsPerGPN <= 0:
		return fmt.Errorf("core: EdgeChannelsPerGPN = %d", c.EdgeChannelsPerGPN)
	case c.Shards < 0:
		return fmt.Errorf("core: Shards = %d", c.Shards)
	case c.CoalesceWindow < 0:
		return fmt.Errorf("core: CoalesceWindow = %d", c.CoalesceWindow)
	case c.Fabric == FabricIdeal && c.CoalesceWindow > 0:
		return fmt.Errorf("core: in-fabric coalescing requires the hierarchical fabric")
	}
	if err := c.VertexChannel.Validate(); err != nil {
		return err
	}
	if c.OutOfCore {
		if c.SSDResidentPages <= 0 {
			return fmt.Errorf("core: OutOfCore with SSDResidentPages = %d", c.SSDResidentPages)
		}
		if err := c.SSD.Validate(); err != nil {
			return err
		}
	}
	return c.EdgeChannel.Validate()
}

// isPow2 reports whether n is a positive power of two.
func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// TotalPEs returns GPNs × PEsPerGPN.
func (c Config) TotalPEs() int { return c.GPNs * c.PEsPerGPN }

// OnChipBytes returns the total on-chip memory of the system: caches plus
// tracker metadata (Eq. 1, for a PE owning verticesPerPE vertices) plus
// active buffers (one block per entry), the quantity Fig. 4's
// iso-comparison reports (1.5 MiB per GPN at Table II scale).
func (c Config) OnChipBytes(verticesPerPE int) int64 {
	trackerBits := resource.TrackerBits(int64(verticesPerPE)*int64(c.VertexBytes), c.SuperblockDim, c.BlockBytes)
	perPE := int64(c.CacheBytesPerPE) +
		trackerBits/8 +
		int64(c.ActiveBufferEntries)*int64(c.BlockBytes)
	return perPE * int64(c.TotalPEs())
}

// clock returns the sim clock for this configuration.
func (c Config) clock() sim.Clock { return sim.Clock{HZ: c.ClockHz} }
