package core

import (
	"nova/internal/network"
	"nova/internal/sim"
	"nova/internal/stats"
	"nova/program"
)

// Result reports one NOVA execution: final vertex properties, the timing
// and work statistics the evaluation figures need, and the memory-system
// breakdowns of Figs. 6 and 10.
type Result struct {
	// Props is the final property vector.
	Props []program.Prop
	// Stats is the engine-agnostic summary (time, traversals, coalescing).
	Stats program.RunStats
	// Ticks is the simulated cycle count.
	Ticks sim.Ticks

	// Vertex-memory traffic across all PEs (bytes).
	VertexUsefulBytes   uint64
	VertexWastefulBytes uint64
	VertexWrittenBytes  uint64
	// VertexPeakBytes is peak vertex-memory capacity over the run
	// (ticks × aggregate bandwidth), the denominator of Fig. 10.
	VertexPeakBytes float64

	// Edge-memory traffic and utilization (Fig. 4's 80–85% claim).
	EdgeBytes       uint64
	EdgePeakBytes   float64
	EdgeUtilization float64

	// Execution-time attribution (Fig. 6): overfetch time is the share
	// of vertex bandwidth spent reading inactive vertices during active-
	// vertex recovery.
	ProcessingSeconds float64
	OverheadSeconds   float64

	// CacheHitRate aggregates the per-PE MPU caches.
	CacheHitRate float64

	// Net is fabric traffic.
	Net network.Stats

	// VMU aggregates vertex-management statistics across PEs (Table I).
	VMU VMUStats

	// Out-of-core tier traffic (zero unless cfg.OutOfCore): partition
	// page-in events issued by the VMUs, their page-rounded volume, and
	// the SSD latency they exposed (DESIGN.md §18).
	PartitionLoads uint64
	BytesPaged     uint64
	IOStallTicks   sim.Ticks

	// OnChipBytes is the modeled on-chip storage (caches + tracker +
	// active buffers).
	OnChipBytes int64

	// Shards is the worker-goroutine count the run executed with;
	// Windows counts conservative time windows (0 for a single-engine
	// run), and the wall-clock split attributes host time to in-window
	// execution vs. barrier synchronization.
	Shards             int
	Windows            uint64
	WindowWallSeconds  float64
	BarrierWallSeconds float64

	// PEEdges counts propagations per PE — the load-balance signal the
	// spatial-mapping comparison of Fig. 9b turns on.
	PEEdges []int64

	// Partial marks a salvaged result: the run stopped early (cancelled,
	// deadline, budget, or watchdog stall) and the stats cover only the
	// work completed before the stop. StopReason classifies the cause.
	Partial    bool
	StopReason sim.StopReason

	// Dump is the full hierarchical statistics dump for the run.
	Dump *stats.Dump
}

// LoadImbalance returns max(per-PE propagations)/mean; 1.0 is perfectly
// balanced.
func (r *Result) LoadImbalance() float64 {
	var sum, max int64
	for _, e := range r.PEEdges {
		sum += e
		if e > max {
			max = e
		}
	}
	if sum == 0 || len(r.PEEdges) == 0 {
		return 1
	}
	return float64(max) * float64(len(r.PEEdges)) / float64(sum)
}

func (s *System) collectResult() *Result {
	cfg := &s.cfg
	ticks := s.now()
	secs := cfg.clock().Seconds(ticks)
	// Fold the per-PE shard-local counters into the System totals the
	// stats tree registered (this runs before the dump).
	s.messagesSent, s.coalesced = 0, 0
	for _, pe := range s.pes {
		s.messagesSent += pe.messagesSent
		s.coalesced += pe.coalesced
	}
	r := &Result{
		Props: s.props,
		Ticks: ticks,
		Stats: program.RunStats{
			SimSeconds:        secs,
			EdgesTraversed:    s.messagesSent,
			MessagesSent:      s.messagesSent,
			MessagesCoalesced: s.coalesced,
			Epochs:            s.epochs,
		},
		Net:                s.fabric.Stats(),
		Shards:             s.workers,
		Windows:            s.cluster.Windows(),
		WindowWallSeconds:  s.cluster.WindowSeconds(),
		BarrierWallSeconds: s.cluster.BarrierSeconds(),
	}
	var hits, accesses uint64
	maxVertsPerPE := 0
	r.PEEdges = make([]int64, len(s.pes))
	for _, pe := range s.pes {
		r.PEEdges[pe.id] = pe.messagesSent
		st := pe.vchan.Stats()
		r.VertexUsefulBytes += st.UsefulBytes
		r.VertexWastefulBytes += st.WastefulBytes
		r.VertexWrittenBytes += st.WrittenBytes
		cs := pe.cache.Stats()
		hits += cs.Hits
		accesses += cs.Hits + cs.Misses
		v := pe.vmu.stats
		r.VMU.DirectPushes += v.DirectPushes
		r.VMU.Spills += v.Spills
		r.VMU.SpillWrites += v.SpillWrites
		r.VMU.PrefetchedBlocks += v.PrefetchedBlocks
		r.VMU.PrefetchHits += v.PrefetchHits
		r.VMU.StaleRetrievals += v.StaleRetrievals
		r.VMU.BatchHits.Merge(v.BatchHits)
		r.VMU.MetadataBytes += v.MetadataBytes
		r.VMU.PageIns += v.PageIns
		r.VMU.BytesPaged += v.BytesPaged
		r.VMU.IOStallTicks += v.IOStallTicks
		if v.FIFOMaxDepth > r.VMU.FIFOMaxDepth {
			r.VMU.FIFOMaxDepth = v.FIFOMaxDepth
		}
		if n := len(pe.localVerts); n > maxVertsPerPE {
			maxVertsPerPE = n
		}
	}
	if accesses > 0 {
		r.CacheHitRate = float64(hits) / float64(accesses)
	}
	r.PartitionLoads = r.VMU.PageIns
	r.BytesPaged = r.VMU.BytesPaged
	r.IOStallTicks = r.VMU.IOStallTicks
	vertexAggBW := cfg.VertexChannel.BytesPerCycle * float64(cfg.TotalPEs())
	r.VertexPeakBytes = float64(ticks) * vertexAggBW
	for _, chans := range s.edgeChans {
		for _, ch := range chans {
			r.EdgeBytes += ch.Stats().TotalBytes()
		}
	}
	edgeAggBW := cfg.EdgeChannel.BytesPerCycle * float64(cfg.EdgeChannelsPerGPN*cfg.GPNs)
	r.EdgePeakBytes = float64(ticks) * edgeAggBW
	if r.EdgePeakBytes > 0 {
		r.EdgeUtilization = float64(r.EdgeBytes) / r.EdgePeakBytes
	}
	// Fig. 6 attribution: time to stream the wasted vertex reads at
	// aggregate vertex bandwidth is overhead; the rest is processing.
	if vertexAggBW > 0 && cfg.ClockHz > 0 {
		r.OverheadSeconds = float64(r.VertexWastefulBytes) / vertexAggBW / cfg.ClockHz
	}
	if r.OverheadSeconds > secs {
		r.OverheadSeconds = secs
	}
	r.ProcessingSeconds = secs - r.OverheadSeconds
	r.OnChipBytes = cfg.OnChipBytes(maxVertsPerPE)
	return r
}

// VertexBWFractions returns the Fig. 10 bars: useful-read, write, and
// wasteful-read traffic as fractions of the vertex memory's peak bandwidth.
func (r *Result) VertexBWFractions() (useful, written, wasteful float64) {
	if r.VertexPeakBytes <= 0 {
		return 0, 0, 0
	}
	return float64(r.VertexUsefulBytes) / r.VertexPeakBytes,
		float64(r.VertexWrittenBytes) / r.VertexPeakBytes,
		float64(r.VertexWastefulBytes) / r.VertexPeakBytes
}
