package main

import (
	"runtime"

	"nova/graph"
)

// workload is one named input set the benchmark runs.
type workload struct {
	name string
	run  func(rc runConfig) (*workloadRecord, error)
}

// The four workloads, in run order. Why each exists is in README.md and
// BENCHMARK.json; in short: sssp-rmat is throughput-bound and bypasses
// spilling and coalescing, prdelta-spill is carried by VMU spills and
// fabric coalescing, pr-road is window- and barrier-bound, and serve-zipf
// is the novad request path with a cache that both hits and evicts.
//
// Each keeps one thread busy and runs with GOMAXPROCS 1: on a small
// shared host, a second busy thread measures the scheduler and the
// neighbours' load more than the program. The sim workloads run one
// shard; serve-zipf runs one client against one simulation worker, which
// also makes the server see requests in the schedule's order, so every
// run hits and misses on the same requests.
var workloads = []workload{
	{"sssp-rmat", ssspRMAT.run},
	{"prdelta-spill", prdeltaSpill.run},
	{"pr-road", prRoad.run},
	{"serve-zipf", serveZipf.run},
}

var ssspRMAT = simWorkload{
	program: "sssp", gpns: 4, shards: 1, cacheBytes: 1 << 10, activeBuffer: 80,
	gen: func(seed int64) *graph.CSR {
		return graph.GenRMATN("twitter", 40000, 35, graph.DefaultRMAT, 64, seed)
	},
}

var prdeltaSpill = simWorkload{
	program: "prdelta", gpns: 4, shards: 1, cacheBytes: 512, activeBuffer: 16, coalesce: 64,
	gen: func(seed int64) *graph.CSR {
		return graph.GenRMATN("prdelta", 4000, 35, graph.DefaultRMAT, 64, seed)
	},
}

var prRoad = simWorkload{
	program: "pr", gpns: 4, shards: 1, cacheBytes: 2 << 10, activeBuffer: 80,
	gen: func(seed int64) *graph.CSR {
		return graph.GenGrid("road", 340, 272, 0.39, 64, seed)
	},
}

var serveZipf = serveWorkload{
	vertices: 20000, degree: 8, workers: 1, backlog: 16, cacheEntries: 24,
	roots: 8, zipfS: 1.2, warmup: 200,
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// setEndToEnd sets the end-to-end metrics every workload reports, with
// times scaled to host speed, and keeps the raw readings. setups are in
// seconds, ops in ms, and hs holds the kernel timings taken around both.
func (r *workloadRecord) setEndToEnd(setups, ops *measured, hs *hostSpeed) {
	r.Latency = summarize(ops.raw)
	n := float64(len(ops.raw))
	r.Raw = map[string]float64{
		"setup_s":   median(setups.raw),
		"op_p50_ms": r.Latency.P50,
		"ops_per_s": n / ops.wall,
		"ref_ms":    median(hs.refMS),
	}
	r.Metrics = map[string]metric{
		"setup_s":     {median(setups.scaled), "s"},
		"op_p50_ms":   {median(ops.scaled), "ms"},
		"ops_per_s":   {n / ops.scaledWall, "1/s"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
}

// perLayer declares every per-layer metric with its unit. Every workload
// reports all of them, 0 where it does not run the layer. Host time in a
// layer only some workloads run is reported as a share of that layer's
// enclosing call (a _frac), so a workload that skips the layer reads 0
// rather than a time of 0.
var perLayer = []struct{ name, unit string }{
	{"graph.gen_s", "s"},
	{"graph.register_frac", "frac"},
	{"graph.partition_s", "s"},
	{"ref.seq_edges_s", "s"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.windows", "count"},
	{"sim.events_per_window", "count"},
	{"sim.window_frac", "frac"},
	{"sim.barrier_frac", "frac"},
	{"sim.shard_speedup", "ratio"},
	{"core.serial_frac", "frac"},
	{"core.cycles", "count"},
	{"core.spills_per_vertex", "ratio"},
	{"core.recovery_hit_rate", "ratio"},
	{"core.cache_hit_rate", "ratio"},
	{"core.load_imbalance", "ratio"},
	{"net.inter_messages", "count"},
	{"net.coalesced", "count"},
	{"stats.records", "count"},
	{"stats.bag_s", "s"},
	{"stats.dump_json_s", "s"},
	{"service.submit_frac", "frac"},
	{"service.wait_frac", "frac"},
	{"service.result_frac", "frac"},
	{"service.hit_rate", "ratio"},
	{"service.evictions", "count"},
	{"service.rejected", "count"},
	{"service.result_kb", "KB"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.gc_per_op", "count"},
	{"trace.overhead_frac", "frac"},
}

// layerMetrics is a traced run's metric set.
type layerMetrics map[string]metric

func newLayerMetrics() layerMetrics {
	m := make(layerMetrics, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = metric{Unit: d.unit}
	}
	return m
}

func (m layerMetrics) set(name string, v float64) {
	mt, ok := m[name]
	if !ok {
		panic("bench: undeclared per-layer metric " + name)
	}
	mt.Value = v
	m[name] = mt
}

// allocMeter sums Go heap allocation and GC cycles over begin/end pairs.
type allocMeter struct {
	bytes, gcs, ops int64
	mark            runtime.MemStats
}

func (m *allocMeter) begin() { runtime.ReadMemStats(&m.mark) }

func (m *allocMeter) end(ops int) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.bytes += int64(ms.TotalAlloc - m.mark.TotalAlloc)
	m.gcs += int64(ms.NumGC - m.mark.NumGC)
	m.ops += int64(ops)
}

// perOp returns MB allocated and GC cycles per measured operation.
func (m *allocMeter) perOp() (mb, gcs float64) {
	if m.ops == 0 {
		return 0, 0
	}
	return float64(m.bytes) / (1 << 20) / float64(m.ops), float64(m.gcs) / float64(m.ops)
}
