package nova

import (
	"nova/internal/core"
	"nova/internal/extmem"
	"nova/internal/ligra"
	"nova/internal/polygraph"
)

// Metric name constants for the root-level record paths of the engines'
// stats dumps, which harness.Report.Metric reads. They are defined in
// the engine packages that produce them and re-exported here so the
// experiment layer and external callers share one set of names; see
// STATS.md for the generated reference of every statistic.
const (
	// NOVA accelerator (nova engine).
	MetricCycles             = core.MetricCycles
	MetricEventsExecuted     = core.MetricEventsExecuted
	MetricEdgeUtilization    = core.MetricEdgeUtilization
	MetricVertexUsefulFrac   = core.MetricVertexUsefulFrac
	MetricVertexWriteFrac    = core.MetricVertexWriteFrac
	MetricVertexWastefulFrac = core.MetricVertexWastefulFrac
	MetricProcessingSeconds  = core.MetricProcessingSeconds
	MetricOverheadSeconds    = core.MetricOverheadSeconds
	MetricCacheHitRate       = core.MetricCacheHitRate
	MetricOnChipBytes        = core.MetricOnChipBytes
	MetricSpills             = core.MetricSpills
	MetricPrefetchedBlocks   = core.MetricPrefetchedBlocks
	MetricPrefetchHits       = core.MetricPrefetchHits
	MetricRecoveryHitRate    = core.MetricRecoveryHitRate
	MetricDirectPushes       = core.MetricDirectPushes
	MetricSpillWrites        = core.MetricSpillWrites
	MetricStaleRetrievals    = core.MetricStaleRetrievals
	MetricMetadataBytes      = core.MetricMetadataBytes
	MetricNetworkBytes       = core.MetricNetworkBytes
	MetricNetworkInterBytes  = core.MetricNetworkInterBytes
	MetricNetworkCoalesced   = core.MetricNetworkCoalesced
	MetricNetworkBytesSaved  = core.MetricNetworkBytesSaved
	MetricLoadImbalance      = core.MetricLoadImbalance

	// PolyGraph baseline (polygraph engine). processing_seconds is shared
	// with NOVA — both engines report a processing-time component under
	// the same key, which is what lets Fig. 6 stack them side by side.
	MetricSwitchingSeconds    = polygraph.MetricSwitchingSeconds
	MetricInefficiencySeconds = polygraph.MetricInefficiencySeconds
	MetricSliceCount          = polygraph.MetricSliceCount
	MetricRounds              = polygraph.MetricRounds
	MetricSlicePasses         = polygraph.MetricSlicePasses
	MetricEdgeBWShare         = polygraph.MetricEdgeBWShare

	// Ligra-style software baseline (ligra engine).
	MetricIterations  = ligra.MetricIterations
	MetricWallSeconds = ligra.MetricWallSeconds

	// Out-of-core tier. partition_loads, bytes_paged and io_stall_ticks
	// are shared between the NOVA engine's SSD spill path and the
	// external-memory baseline (extmem engine), which is what lets the
	// spill/recovery figure stack them side by side; the remaining keys
	// belong to the extmem engine's DRAM partition cache.
	MetricPartitionLoads = core.MetricPartitionLoads
	MetricBytesPaged     = core.MetricBytesPaged
	MetricIOStallTicks   = core.MetricIOStallTicks
	MetricComputeCycles  = extmem.MetricComputeCycles
	MetricPartitions     = extmem.MetricPartitions
	MetricEvictions      = extmem.MetricEvictions
)
