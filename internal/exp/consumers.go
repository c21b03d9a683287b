package exp

import "nova"

// MetricConsumers maps root-level stats-dump paths (the keys runners pass
// to harness.Report.Metric) to the figures and tables of the evaluation
// that read them. It exists so the generated STATS.md can show where each
// statistic feeds the paper's results, and so renaming a key without
// updating its consumers is a visible diff in one place.
var MetricConsumers = map[string][]string{
	nova.MetricSliceCount:          {"Fig. 1"},
	nova.MetricProcessingSeconds:   {"Fig. 2", "Fig. 6"},
	nova.MetricSwitchingSeconds:    {"Fig. 2", "Fig. 6"},
	nova.MetricInefficiencySeconds: {"Fig. 2", "Fig. 6"},
	nova.MetricOverheadSeconds:     {"Fig. 6"},
	nova.MetricCacheHitRate:        {"Fig. 9a"},
	nova.MetricVertexUsefulFrac:    {"Fig. 10"},
	nova.MetricVertexWriteFrac:     {"Fig. 10"},
	nova.MetricVertexWastefulFrac:  {"Fig. 10"},
	nova.MetricNetworkCoalesced:    {"Fig. net"},
	nova.MetricNetworkBytesSaved:   {"Fig. net"},
	nova.MetricNetworkAvgHops:      {"Fig. net"},
	nova.MetricPartitionLoads:      {"Fig. ooc"},
	nova.MetricBytesPaged:          {"Fig. ooc"},
	nova.MetricIOStallTicks:        {"Fig. ooc"},
	nova.MetricSpills:              {"Table I"},
	nova.MetricSpillWrites:         {"Table I"},
	nova.MetricStaleRetrievals:     {"Table I"},
	nova.MetricMetadataBytes:       {"Table I"},
}
