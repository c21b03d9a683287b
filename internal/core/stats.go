package core

import (
	"fmt"

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
	MetricNetworkAvgHops     = "network_avg_hops"
	MetricLoadImbalance      = "load_imbalance"
	MetricPartitionLoads     = "partition_loads"
	MetricBytesPaged         = "bytes_paged"
	MetricIOStallTicks       = "io_stall_ticks"
)

// buildStatsTree registers the whole machine in a stats tree at assembly
// time. Root-level stats carry the headline metric names; component
// detail nests as gpn<g>.pe<p>.{mpu,vchan,vmu,mgu} and network.*. All
// derived values are formulas over s.result, which Run populates before
// dumping, so the tree is read-only instrumentation: nothing on the hot
// path changes.
func (s *System) buildStatsTree() {
	root := stats.NewRoot()
	s.stats = root
	res := func(f func(r *Result) float64) func() float64 {
		return func() float64 {
			if s.result == nil {
				return 0
			}
			return f(s.result)
		}
	}

	root.Formula(res(func(r *Result) float64 { return float64(r.Ticks) }),
		MetricCycles, stats.Cycles, "simulated cycles to completion")
	root.Formula(func() float64 { return float64(s.cluster.Executed()) },
		MetricEventsExecuted, stats.Count, "simulator events executed across all shards (fabric efficiency signal)")
	root.Formula(res(func(r *Result) float64 { return r.EdgeUtilization }),
		MetricEdgeUtilization, stats.Ratio, "achieved fraction of aggregate edge-memory bandwidth (Fig. 4)")
	root.Formula(res(func(r *Result) float64 { u, _, _ := r.VertexBWFractions(); return u }),
		MetricVertexUsefulFrac, stats.Ratio, "useful-read share of peak vertex-memory bandwidth (Fig. 10)")
	root.Formula(res(func(r *Result) float64 { _, w, _ := r.VertexBWFractions(); return w }),
		MetricVertexWriteFrac, stats.Ratio, "write share of peak vertex-memory bandwidth (Fig. 10)")
	root.Formula(res(func(r *Result) float64 { _, _, w := r.VertexBWFractions(); return w }),
		MetricVertexWastefulFrac, stats.Ratio, "wasteful-read share of peak vertex-memory bandwidth (Fig. 10)")
	root.Formula(res(func(r *Result) float64 { return r.ProcessingSeconds }),
		MetricProcessingSeconds, stats.Seconds, "execution time minus overfetch overhead (Fig. 6)")
	root.Formula(res(func(r *Result) float64 { return r.OverheadSeconds }),
		MetricOverheadSeconds, stats.Seconds, "time attributed to reading inactive vertices during recovery (Fig. 6)")
	root.Formula(res(func(r *Result) float64 { return r.CacheHitRate }),
		MetricCacheHitRate, stats.Ratio, "aggregate MPU vertex-cache hit rate")
	root.Formula(res(func(r *Result) float64 { return float64(r.OnChipBytes) }),
		MetricOnChipBytes, stats.Bytes, "modeled on-chip storage (caches + tracker + active buffers)")
	root.Formula(res(func(r *Result) float64 { return float64(r.VMU.Spills) }),
		MetricSpills, stats.Count, "activations that overflowed to off-chip memory (Table I)")
	root.Formula(res(func(r *Result) float64 { return float64(r.VMU.DirectPushes) }),
		MetricDirectPushes, stats.Count, "FIFO-policy activations that fit on-chip without spilling (Table I)")
	root.Formula(res(func(r *Result) float64 { return float64(r.VMU.SpillWrites) }),
		MetricSpillWrites, stats.Count, "extra off-chip writes caused by spilling (Table I)")
	root.Formula(res(func(r *Result) float64 { return float64(r.VMU.StaleRetrievals) }),
		MetricStaleRetrievals, stats.Count, "FIFO entries already propagated when popped (Table I)")
	root.Formula(res(func(r *Result) float64 { return float64(r.VMU.PrefetchedBlocks) }),
		MetricPrefetchedBlocks, stats.Count, "vertex blocks read back during active-vertex recovery")
	root.Formula(res(func(r *Result) float64 { return float64(r.VMU.PrefetchHits) }),
		MetricPrefetchHits, stats.Count, "recovered blocks that held active vertices")
	root.Formula(res(func(r *Result) float64 {
		if r.VMU.PrefetchedBlocks == 0 {
			return 0
		}
		return float64(r.VMU.PrefetchHits) / float64(r.VMU.PrefetchedBlocks)
	}), MetricRecoveryHitRate, stats.Ratio, "fraction of recovery reads that held active vertices (tracker precision)")
	root.Formula(res(func(r *Result) float64 { return float64(r.VMU.MetadataBytes) }),
		MetricMetadataBytes, stats.Bytes, "explicit off-chip metadata the spill policy needs (Table I)")
	root.Formula(res(func(r *Result) float64 { return float64(r.Net.Bytes) }),
		MetricNetworkBytes, stats.Bytes, "total fabric payload moved")
	root.Formula(res(func(r *Result) float64 { return float64(r.Net.InterBytes) }),
		MetricNetworkInterBytes, stats.Bytes, "fabric payload that crossed the GPN-level crossbar")
	root.Formula(res(func(r *Result) float64 { return float64(r.Net.Coalesced) }),
		MetricNetworkCoalesced, stats.Count, "cross-GPN message batches absorbed by the fabric's coalescing stage")
	root.Formula(res(func(r *Result) float64 { return float64(r.Net.BytesSaved) }),
		MetricNetworkBytesSaved, stats.Bytes, "payload bytes the coalescing stage kept off the inter-GPN links")
	root.Formula(res(func(r *Result) float64 {
		if r.Net.InterMessages == 0 {
			return 0
		}
		return float64(r.Net.HopsSum) / float64(r.Net.InterMessages)
	}), MetricNetworkAvgHops, stats.Ratio, "mean inter-GPN links traversed per cross-GPN message")
	root.Formula(res(func(r *Result) float64 { return r.LoadImbalance() }),
		MetricLoadImbalance, stats.Ratio, "max per-PE propagations over mean; 1.0 is balanced (Fig. 9b)")
	root.Formula(res(func(r *Result) float64 { return float64(r.PartitionLoads) }),
		MetricPartitionLoads, stats.Count, "out-of-core partition page-in events (0 when the graph is DRAM-resident)")
	root.Formula(res(func(r *Result) float64 { return float64(r.BytesPaged) }),
		MetricBytesPaged, stats.Bytes, "page-rounded bytes read from the SSD tier")
	root.Formula(res(func(r *Result) float64 { return float64(r.IOStallTicks) }),
		MetricIOStallTicks, stats.Cycles, "SSD page-in latency exposed to the VMUs (sum over page-in events)")

	root.Int64(&s.edgesTraversed, "edges_traversed", stats.Count, "edges whose propagate produced or suppressed a message")
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
		mg.Int64(&pe.edgesOut, "edges_out", stats.Count, "propagations generated by this PE (load-balance signal)")
		mg.Distribution(&pe.batchVerts, "batch_vertices", stats.Count, "active vertices per propagation batch")
		mg.Distribution(&pe.batchEdges, "batch_edges", stats.Count, "edges streamed per propagation batch")
	}
	s.fabric.RegisterStats(root.Group("network"))
}
