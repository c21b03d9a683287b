package core

import (
	"fmt"

	"nova/internal/mem"
	"nova/internal/network"
	"nova/internal/stats"
)

// Metric names for the root-level statistics the NOVA engine exports.
// They are stable dump paths: the stats tree registers each one at the
// root, where harness.Report.Metric reads it, while the hierarchical
// detail grows underneath.
const (
	MetricCycles             = "cycles"
	MetricEventsExecuted     = "events_executed"
	MetricEdgeUtilization    = "edge_utilization"
	MetricVertexUsefulFrac   = "vertex_useful_frac"
	MetricVertexWriteFrac    = "vertex_write_frac"
	MetricVertexWastefulFrac = "vertex_wasteful_frac"
	MetricProcessingSeconds  = "processing_seconds"
	MetricOverheadSeconds    = "overhead_seconds"
	MetricCacheHitRate       = "cache_hit_rate"
	MetricOnChipBytes        = "onchip_bytes"
	MetricSpills             = "spills"
	MetricDirectPushes       = "direct_pushes"
	MetricSpillWrites        = "spill_writes"
	MetricStaleRetrievals    = "stale_retrievals"
	MetricPrefetchedBlocks   = "prefetched_blocks"
	MetricPrefetchHits       = "prefetch_hits"
	MetricRecoveryHitRate    = "recovery_hit_rate"
	MetricMetadataBytes      = "metadata_bytes"
	MetricNetworkBytes       = "network_bytes"
	MetricNetworkInterBytes  = "network_inter_bytes"
	MetricNetworkCoalesced   = "network_messages_coalesced"
	MetricNetworkBytesSaved  = "network_bytes_saved"
	MetricLoadImbalance      = "load_imbalance"
	MetricPartitionLoads     = "partition_loads"
	MetricBytesPaged         = "bytes_paged"
	MetricIOStallTicks       = "io_stall_ticks"
)

// buildStatsTree registers the whole machine in a stats tree at assembly
// time. Root-level stats carry the headline metric names; component
// detail nests as gpn<g>.pe<p>.{mpu,vchan,vmu,mgu} and network.*. Each
// root metric is a formula over the state of the components that
// produce it, evaluated when Run dumps the tree, so the tree is read-only
// instrumentation: nothing on the hot path changes.
func (s *System) buildStatsTree() {
	root := stats.NewRoot()
	s.stats = root
	vmu := s.vmuTotal
	net := s.netStat

	root.Formula(func() float64 { return float64(s.now()) },
		MetricCycles, stats.Cycles, "simulated cycles to completion")
	root.Formula(func() float64 { return float64(s.cluster.Executed()) },
		MetricEventsExecuted, stats.Count, "simulator events executed across all shards (fabric efficiency signal)")
	root.Formula(s.edgeUtilization,
		MetricEdgeUtilization, stats.Ratio, "achieved fraction of aggregate edge-memory bandwidth (Fig. 4)")
	root.Formula(s.vertexFrac(func(st mem.ChannelStats) uint64 { return st.UsefulBytes }),
		MetricVertexUsefulFrac, stats.Ratio, "useful-read share of peak vertex-memory bandwidth (Fig. 10)")
	root.Formula(s.vertexFrac(func(st mem.ChannelStats) uint64 { return st.WrittenBytes }),
		MetricVertexWriteFrac, stats.Ratio, "write share of peak vertex-memory bandwidth (Fig. 10)")
	root.Formula(s.vertexFrac(func(st mem.ChannelStats) uint64 { return st.WastefulBytes }),
		MetricVertexWastefulFrac, stats.Ratio, "wasteful-read share of peak vertex-memory bandwidth (Fig. 10)")
	root.Formula(func() float64 { return s.cfg.clock().Seconds(s.now()) - s.overheadSeconds() },
		MetricProcessingSeconds, stats.Seconds, "execution time minus overfetch overhead (Fig. 6)")
	root.Formula(s.overheadSeconds,
		MetricOverheadSeconds, stats.Seconds, "time attributed to reading inactive vertices during recovery (Fig. 6)")
	root.Formula(s.cacheHitRate,
		MetricCacheHitRate, stats.Ratio, "aggregate MPU vertex-cache hit rate")
	root.Formula(s.onChipBytes,
		MetricOnChipBytes, stats.Bytes, "modeled on-chip storage (caches + tracker + active buffers)")
	root.Formula(vmu(func(v *VMUStats) uint64 { return v.Spills }),
		MetricSpills, stats.Count, "activations that overflowed to off-chip memory (Table I)")
	root.Formula(vmu(func(v *VMUStats) uint64 { return v.DirectPushes }),
		MetricDirectPushes, stats.Count, "FIFO-policy activations that fit on-chip without spilling (Table I)")
	root.Formula(vmu(func(v *VMUStats) uint64 { return v.SpillWrites }),
		MetricSpillWrites, stats.Count, "extra off-chip writes caused by spilling (Table I)")
	root.Formula(vmu(func(v *VMUStats) uint64 { return v.StaleRetrievals }),
		MetricStaleRetrievals, stats.Count, "FIFO entries already propagated when popped (Table I)")
	prefetched := vmu(func(v *VMUStats) uint64 { return v.PrefetchedBlocks })
	prefetchHits := vmu(func(v *VMUStats) uint64 { return v.PrefetchHits })
	root.Formula(prefetched,
		MetricPrefetchedBlocks, stats.Count, "vertex blocks read back during active-vertex recovery")
	root.Formula(prefetchHits,
		MetricPrefetchHits, stats.Count, "recovered blocks that held active vertices")
	root.Formula(func() float64 {
		if blocks := prefetched(); blocks != 0 {
			return prefetchHits() / blocks
		}
		return 0
	}, MetricRecoveryHitRate, stats.Ratio, "fraction of recovery reads that held active vertices (tracker precision)")
	root.Formula(vmu(func(v *VMUStats) uint64 { return v.MetadataBytes }),
		MetricMetadataBytes, stats.Bytes, "explicit off-chip metadata the spill policy needs (Table I)")
	root.Formula(net(func(st network.Stats) uint64 { return st.Bytes }),
		MetricNetworkBytes, stats.Bytes, "total fabric payload moved")
	root.Formula(net(func(st network.Stats) uint64 { return st.InterBytes }),
		MetricNetworkInterBytes, stats.Bytes, "fabric payload that crossed the GPN-level crossbar")
	root.Formula(net(func(st network.Stats) uint64 { return st.Coalesced }),
		MetricNetworkCoalesced, stats.Count, "cross-GPN message batches absorbed by the fabric's coalescing stage")
	root.Formula(net(func(st network.Stats) uint64 { return st.BytesSaved }),
		MetricNetworkBytesSaved, stats.Bytes, "payload bytes the coalescing stage kept off the inter-GPN links")
	root.Formula(s.loadImbalance,
		MetricLoadImbalance, stats.Ratio, "max per-PE propagations over mean; 1.0 is balanced (Fig. 9b)")
	root.Formula(vmu(func(v *VMUStats) uint64 { return v.PageIns }),
		MetricPartitionLoads, stats.Count, "out-of-core partition page-in events (0 when the graph is DRAM-resident)")
	root.Formula(vmu(func(v *VMUStats) uint64 { return v.BytesPaged }),
		MetricBytesPaged, stats.Bytes, "page-rounded bytes read from the SSD tier")
	root.Formula(vmu(func(v *VMUStats) uint64 { return uint64(v.IOStallTicks) }),
		MetricIOStallTicks, stats.Cycles, "SSD page-in latency exposed to the VMUs (sum over page-in events)")

	root.Int64(&s.messagesSent, "edges_traversed", stats.Count, "propagations that produced a message")
	root.Int64(&s.messagesSent, "messages_sent", stats.Count, "messages generated by the MGUs")
	root.Int64(&s.coalesced, "messages_coalesced", stats.Count, "updates absorbed by an already-active vertex (coalescing window)")
	root.Int64(&s.drains, "drains", stats.Count, "quiescence-boundary cache drains")
	root.Int(&s.epochs, "epochs", stats.Count, "BSP epochs executed (0 for asynchronous programs)")

	for gpn, chans := range s.edgeChans {
		gg := root.Group(fmt.Sprintf("gpn%d", gpn))
		for i, ch := range chans {
			ch.RegisterStats(gg.Group(fmt.Sprintf("edge%d", i)))
		}
		if s.ssds != nil {
			s.ssds[gpn].RegisterStats(gg.Group("ssd"))
		}
	}
	for _, pe := range s.pes {
		pg := root.Group(fmt.Sprintf("gpn%d", pe.gpn)).Group(fmt.Sprintf("pe%d", pe.id%s.cfg.PEsPerGPN))
		mpu := pg.Group("mpu")
		pe.cache.RegisterStats(mpu.Group("cache"))
		mpu.Histogram(&pe.inboxDepth, "inbox_depth", stats.Entries, "inbox backlog seen by each arriving message batch (log2 buckets)")
		pe.vchan.RegisterStats(pg.Group("vchan"))
		u := pe.vmu
		vg := pg.Group("vmu")
		vg.Uint64(&u.stats.DirectPushes, "direct_pushes", stats.Count, "activations pushed straight into the on-chip buffer (FIFO policy)")
		vg.Uint64(&u.stats.Spills, "spills", stats.Count, "activations that overflowed to off-chip memory")
		vg.Uint64(&u.stats.SpillWrites, "spill_writes", stats.Count, "extra off-chip writes caused by spilling")
		vg.Uint64(&u.stats.PrefetchedBlocks, "prefetched_blocks", stats.Count, "vertex blocks read back during active-vertex recovery")
		vg.Uint64(&u.stats.PrefetchHits, "prefetch_hits", stats.Count, "recovered blocks that held active vertices")
		vg.Uint64(&u.stats.StaleRetrievals, "stale_retrievals", stats.Count, "FIFO entries already propagated when popped")
		vg.Distribution(&u.stats.BatchHits, "batch_hits", stats.Count, "active blocks recovered per completed prefetch batch (tracker precision)")
		vg.Int(&u.stats.FIFOMaxDepth, "fifo_max_depth", stats.Entries, "high-water mark of the off-chip FIFO")
		vg.Uint64(&u.stats.MetadataBytes, "metadata_bytes", stats.Bytes, "explicit off-chip metadata written by the spill policy")
		if s.cfg.OutOfCore {
			vg.Uint64(&u.stats.PageIns, "page_ins", stats.Count, "vertex-block reads that missed the SSD resident window")
			vg.Uint64(&u.stats.BytesPaged, "bytes_paged", stats.Bytes, "page-rounded bytes this VMU paged in")
			vg.Formula(func() float64 { return float64(u.stats.IOStallTicks) },
				"io_stall_cycles", stats.Cycles, "SSD page-in latency exposed by this VMU's reads")
		}
		vg.Histogram(&u.occupancy, "buffer_occupancy", stats.Entries, "active-buffer fill level at each push (linear buckets of 4)")
		mg := pg.Group("mgu")
		mg.Int64(&pe.messagesSent, "edges_out", stats.Count, "propagations generated by this PE (load-balance signal)")
		mg.Distribution(&pe.batchVerts, "batch_vertices", stats.Count, "active vertices per propagation batch")
		mg.Distribution(&pe.batchEdges, "batch_edges", stats.Count, "edges streamed per propagation batch")
	}
	s.fabric.RegisterStats(root.Group("network"))
}

// The helpers below are the root records' dump-time formulas over the
// state of the components that produce them: the PEs' VMUs, caches and
// vertex channels, the edge channels, the fabric and the cluster clock.

// vmuTotal returns a formula summing one VMU counter over every PE.
func (s *System) vmuTotal(f func(v *VMUStats) uint64) func() float64 {
	return func() float64 {
		var n uint64
		for _, pe := range s.pes {
			n += f(&pe.vmu.stats)
		}
		return float64(n)
	}
}

// netStat returns a formula reading one fabric counter.
func (s *System) netStat(f func(st network.Stats) uint64) func() float64 {
	return func() float64 { return float64(f(s.fabric.Stats())) }
}

// vertexAggBW is the aggregate vertex-memory bandwidth in bytes per cycle.
func (s *System) vertexAggBW() float64 {
	return s.cfg.VertexChannel.BytesPerCycle * float64(s.cfg.TotalPEs())
}

// vertexBytes sums one vertex-channel traffic class over every PE.
func (s *System) vertexBytes(f func(st mem.ChannelStats) uint64) uint64 {
	var n uint64
	for _, pe := range s.pes {
		n += f(pe.vchan.Stats())
	}
	return n
}

// vertexFrac returns a formula for one vertex-channel traffic class as a
// fraction of the vertex memory's peak bytes over the run (Fig. 10).
func (s *System) vertexFrac(f func(st mem.ChannelStats) uint64) func() float64 {
	return func() float64 {
		peak := float64(s.now()) * s.vertexAggBW()
		if peak <= 0 {
			return 0
		}
		return float64(s.vertexBytes(f)) / peak
	}
}

// edgeUtilization is the achieved fraction of aggregate edge-memory
// bandwidth (Fig. 4).
func (s *System) edgeUtilization() float64 {
	var bytes uint64
	for _, chans := range s.edgeChans {
		for _, ch := range chans {
			bytes += ch.Stats().TotalBytes()
		}
	}
	edgeAggBW := s.cfg.EdgeChannel.BytesPerCycle * float64(s.cfg.EdgeChannelsPerGPN*s.cfg.GPNs)
	peak := float64(s.now()) * edgeAggBW
	if peak <= 0 {
		return 0
	}
	return float64(bytes) / peak
}

// overheadSeconds is Fig. 6's overfetch time: the wasted vertex reads
// streamed at aggregate vertex bandwidth, capped at the run's time.
func (s *System) overheadSeconds() float64 {
	var o float64
	if bw := s.vertexAggBW(); bw > 0 && s.cfg.ClockHz > 0 {
		o = float64(s.vertexBytes(func(st mem.ChannelStats) uint64 { return st.WastefulBytes })) / bw / s.cfg.ClockHz
	}
	return min(o, s.cfg.clock().Seconds(s.now()))
}

// cacheHitRate aggregates the per-PE MPU caches.
func (s *System) cacheHitRate() float64 {
	var hits, accesses uint64
	for _, pe := range s.pes {
		cs := pe.cache.Stats()
		hits += cs.Hits
		accesses += cs.Hits + cs.Misses
	}
	if accesses == 0 {
		return 0
	}
	return float64(hits) / float64(accesses)
}

// onChipBytes is the modeled on-chip storage, sized by the most heavily
// loaded PE's vertex count.
func (s *System) onChipBytes() float64 {
	maxVerts := 0
	for _, pe := range s.pes {
		maxVerts = max(maxVerts, len(pe.localVerts))
	}
	return float64(s.cfg.OnChipBytes(maxVerts))
}

// loadImbalance is max(per-PE propagations)/mean; 1.0 is perfectly
// balanced.
func (s *System) loadImbalance() float64 {
	var sum, most int64
	for _, pe := range s.pes {
		sum += pe.messagesSent
		most = max(most, pe.messagesSent)
	}
	if sum == 0 || len(s.pes) == 0 {
		return 1
	}
	return float64(most) * float64(len(s.pes)) / float64(sum)
}
