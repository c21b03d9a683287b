// Command simbench measures the event-kernel hot paths with the standard
// testing.Benchmark driver and writes the machine-readable record that
// `make bench-sim` commits as BENCH_sim.json. The record keeps two earlier
// kernels' numbers on the same benchmark bodies beside the current run —
// the seed kernel (container/heap, closure events) and the single 4-ary
// heap the time wheel replaced — so regressions against either point are
// one jq expression away.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"nova/internal/sim"
)

// ticker is the pre-allocated recurring-event pattern the converted
// components use: one Handler struct, one Event, Reschedule per cycle.
type ticker struct {
	e   *sim.Engine
	ev  *sim.Event
	n   int
	max int
}

func (t *ticker) Fire() {
	t.n++
	if t.n < t.max {
		t.e.Reschedule(t.ev, t.e.Now()+1)
	}
}

// metric is one benchmark's normalized result.
type metric struct {
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
	EventsPerSec   float64 `json:"events_per_sec"`
}

// bestOf runs a benchmark n times and keeps the fastest result: single
// runs on shared runners jitter by 10%+, which a 2% gate (make
// bench-shard) cannot tolerate, while the minimum is stable — transient
// noise only ever makes a run slower.
func bestOf(n int, f func(*testing.B)) testing.BenchmarkResult {
	var best testing.BenchmarkResult
	for i := 0; i < n; i++ {
		r := testing.Benchmark(f)
		if i == 0 || perOpNs(r) < perOpNs(best) {
			best = r
		}
	}
	return best
}

func perOpNs(r testing.BenchmarkResult) float64 {
	if r.N == 0 {
		return 0
	}
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

func normalize(r testing.BenchmarkResult, eventsPerOp int) metric {
	per := float64(eventsPerOp)
	ns := float64(r.NsPerOp()) / per
	if nsExact := float64(r.T.Nanoseconds()) / float64(r.N) / per; nsExact > 0 {
		ns = nsExact
	}
	m := metric{
		NsPerEvent:     ns,
		AllocsPerEvent: float64(r.AllocsPerOp()) / per,
		BytesPerEvent:  float64(r.AllocedBytesPerOp()) / per,
	}
	if ns > 0 {
		m.EventsPerSec = 1e9 / ns
	}
	return m
}

// record is the BENCH_sim.json schema.
type record struct {
	Kernel     string            `json:"kernel"`
	Benchmarks map[string]metric `json:"benchmarks"`
	// HeapBaseline holds every benchmark measured on the single 4-ary
	// heap kernel the two-tier queue replaced.
	HeapBaseline map[string]metric `json:"heap_baseline"`
	// SeedBaseline holds the same benchmarks measured on the seed kernel
	// (container/heap priority queue, func() callbacks, no event pool).
	SeedBaseline map[string]metric `json:"seed_baseline"`
	// ThroughputSpeedupVsSeed is current event_throughput events/sec over
	// the seed kernel's (the acceptance gate is >= 2).
	ThroughputSpeedupVsSeed float64 `json:"throughput_speedup_vs_seed"`
}

// seedBaseline is the seed kernel measured on this repository at commit
// 768385a with the identical benchmark bodies (ScheduleFunc was Schedule).
func seedBaseline() map[string]metric {
	mk := func(ns, allocs, bytes float64) metric {
		return metric{NsPerEvent: ns, AllocsPerEvent: allocs, BytesPerEvent: bytes, EventsPerSec: 1e9 / ns}
	}
	return map[string]metric{
		"event_throughput":    mk(56.78, 1, 32),
		"schedule_deschedule": mk(50.08, 1, 32),
		"fan_out":             mk(6970.0/64, 1, 32),
	}
}

// heapBaseline is the single 4-ary heap kernel (commit c8fb30a) measured
// with these benchmark bodies on the host that recorded BENCH_sim.json, a
// 2-vCPU Intel Xeon VM with Go 1.24: the median of three best-of-3 runs,
// alternated with runs of the two-tier kernel. All cases allocated nothing.
func heapBaseline() map[string]metric {
	mk := func(ns float64) metric { return metric{NsPerEvent: ns, EventsPerSec: 1e9 / ns} }
	return map[string]metric{
		"event_throughput":      mk(16.61),
		"event_throughput_func": mk(21.79),
		"schedule_deschedule":   mk(18.06),
		"fan_out":               mk(50.52),
		"deep_queue":            mk(171.64),
	}
}

// benchCluster measures the sharded kernel: gpns engines under one
// Cluster, each engine running tickersPer self-rescheduling tickers for
// b.N firings each, with the crossbar-default lookahead of 120 ticks
// bounding each window. Every iteration therefore executes gpns*tickersPer
// events, and normalize(, gpns*tickersPer) folds that back out so
// EventsPerSec is the aggregate throughput across all shards — not the
// per-shard rate. tickersPer sets the in-window work per shard
// (tickersPer * lookahead events between barriers): 1 isolates the
// cluster wrapper against the raw kernel, clusterTickers approximates a
// loaded GPN so the multi-worker numbers amortize the barrier the way a
// real window does.
func benchCluster(gpns, workers, tickersPer int) func(*testing.B) {
	return func(b *testing.B) {
		engines := make([]*sim.Engine, gpns)
		for i := range engines {
			e := sim.NewEngine()
			engines[i] = e
			for j := 0; j < tickersPer; j++ {
				t := &ticker{e: e, max: b.N}
				t.ev = sim.NewEvent(t)
				e.ScheduleEvent(t.ev, sim.Ticks(j))
			}
		}
		cl, err := sim.NewCluster(engines, 120, workers)
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		noExchange := func() (int, error) { return 0, nil }
		b.ReportAllocs()
		b.ResetTimer()
		if err := cl.Run(0, noExchange); err != nil {
			b.Fatal(err)
		}
	}
}

func benchThroughput(b *testing.B) {
	e := sim.NewEngine()
	t := &ticker{e: e, max: b.N}
	t.ev = sim.NewEvent(t)
	b.ReportAllocs()
	b.ResetTimer()
	e.ScheduleEvent(t.ev, 0)
	if err := e.RunUntilQuiet(0); err != nil {
		b.Fatal(err)
	}
}

func benchThroughputFunc(b *testing.B) {
	e := sim.NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.ScheduleFunc(1, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.ScheduleFunc(0, tick)
	if err := e.RunUntilQuiet(0); err != nil {
		b.Fatal(err)
	}
}

func benchScheduleDeschedule(b *testing.B) {
	e := sim.NewEngine()
	h := sim.HandlerFunc(func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.Schedule(1000, h)
		e.Deschedule(ev)
	}
}

func benchFanOut(b *testing.B) {
	e := sim.NewEngine()
	h := sim.HandlerFunc(func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			e.Schedule(sim.Ticks(j%8), h)
		}
		if err := e.RunUntilQuiet(0); err != nil {
			b.Fatal(err)
		}
	}
}

// deepQueue keeps deepPending pooled one-shots in flight, like a loaded
// GPN: each firing schedules a replacement with the next delay from a
// table drawn to the NOVA cells' measured mix. The seeded table holds 36%
// at +1 tick, 28% in [128, 256), and a tail to ~8k ticks with 0.2% (8 of
// 4,096) past 2,048.
type deepQueue struct {
	e      *sim.Engine
	delays []sim.Ticks
	i      int
}

const deepPending = 1000

func (d *deepQueue) Fire() {
	d.e.Schedule(d.delays[d.i&(len(d.delays)-1)], d)
	d.i++
}

func newDeepQueue(b *testing.B) *deepQueue {
	rng := rand.New(rand.NewSource(1))
	d := &deepQueue{e: sim.NewEngine(), delays: make([]sim.Ticks, 4096)}
	for i := range d.delays {
		switch p := rng.Float64(); {
		case p < 0.35:
			d.delays[i] = 1
		case p < 0.63:
			d.delays[i] = sim.Ticks(128 + rng.Intn(128))
		case p < 0.83:
			d.delays[i] = sim.Ticks(2 + rng.Intn(126))
		case p < 0.999:
			d.delays[i] = sim.Ticks(256 + rng.Intn(2048-256))
		default:
			d.delays[i] = sim.Ticks(2048 + rng.Intn(6144))
		}
	}
	for i := 0; i < deepPending; i++ {
		d.Fire()
	}
	// One pass through the population fills the event pool.
	if err := d.e.Run(0, deepPending); !errors.Is(err, sim.ErrMaxEvents) {
		b.Fatal(err)
	}
	return d
}

func benchDeepQueue(b *testing.B) {
	d := newDeepQueue(b)
	b.ReportAllocs()
	b.ResetTimer()
	if err := d.e.Run(0, d.e.Executed()+uint64(b.N)); !errors.Is(err, sim.ErrMaxEvents) {
		b.Fatal(err)
	}
}

// shardRecord is the BENCH_shard.json schema. Its benchmarks map holds
// one "event_throughput" entry measured through the single-engine Cluster
// fast path, so `benchdiff -threshold 2 BENCH_sim.json BENCH_shard.json`
// pins the 1-shard cluster wrapper within 2% of the raw kernel; the
// cluster_Nshard entries and the speedup map have no baseline in
// BENCH_sim.json and are reported without gating.
type shardRecord struct {
	Kernel    string `json:"kernel"`
	Lookahead uint64 `json:"lookahead_ticks"`
	// Benchmarks: "event_throughput" (1 engine, 1 worker, cluster fast
	// path), "cluster_Nshard" (N engines, N workers), and
	// "cluster_Nshard_1worker" (N engines, sequential windows — the
	// scaling denominator). EventsPerSec aggregates across all shards.
	Benchmarks map[string]metric `json:"benchmarks"`
	// Speedup: "cluster_Nshard_speedup" = N-worker aggregate events/sec
	// over the 1-worker run of the same N-engine workload.
	Speedup map[string]float64 `json:"speedup"`
}

// clusterTickers is the per-shard concurrent-event population for the
// cluster_Nshard benchmarks — enough in-window work (64 events per tick,
// 7680 per 120-tick window) to stand in for a loaded GPN.
const clusterTickers = 64

func runShardMode(out, shardList string) {
	rec := shardRecord{
		Kernel:     "windowed-cluster",
		Lookahead:  120,
		Benchmarks: map[string]metric{},
		Speedup:    map[string]float64{},
	}
	counts, err := parseShards(shardList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	rec.Benchmarks["event_throughput"] = normalize(bestOf(3, benchCluster(1, 1, 1)), 1)
	for _, n := range counts {
		if n == 1 {
			continue // the 1-shard case is event_throughput itself
		}
		seq := normalize(bestOf(3, benchCluster(n, 1, clusterTickers)), n*clusterTickers)
		par := normalize(bestOf(3, benchCluster(n, n, clusterTickers)), n*clusterTickers)
		rec.Benchmarks[fmt.Sprintf("cluster_%dshard_1worker", n)] = seq
		rec.Benchmarks[fmt.Sprintf("cluster_%dshard", n)] = par
		if seq.EventsPerSec > 0 {
			rec.Speedup[fmt.Sprintf("cluster_%dshard_speedup", n)] = par.EventsPerSec / seq.EventsPerSec
		}
	}
	writeJSON(out, rec)
	fmt.Printf("simbench: cluster event_throughput %.2f ns/event (%.0f events/sec), %g allocs/event -> %s\n",
		rec.Benchmarks["event_throughput"].NsPerEvent,
		rec.Benchmarks["event_throughput"].EventsPerSec,
		rec.Benchmarks["event_throughput"].AllocsPerEvent,
		out)
	for _, n := range counts {
		if k := fmt.Sprintf("cluster_%dshard", n); n != 1 {
			fmt.Printf("simbench: %s %.0f events/sec aggregate (%.2fx vs 1 worker)\n",
				k, rec.Benchmarks[k].EventsPerSec, rec.Speedup[k+"_speedup"])
		}
	}
}

func parseShards(list string) ([]int, error) {
	var counts []int
	for _, f := range strings.Split(list, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -shards entry %q (want positive integers)", f)
		}
		counts = append(counts, n)
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("-shards list is empty")
	}
	return counts, nil
}

func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
}

func main() {
	out := flag.String("o", "BENCH_sim.json", "output path")
	shardOut := flag.String("shard-out", "", "write the sharded-cluster record here instead of the kernel record (make bench-shard)")
	shardList := flag.String("shards", "1,2,4", "comma-separated shard counts for -shard-out mode")
	flag.Parse()

	if *shardOut != "" {
		runShardMode(*shardOut, *shardList)
		return
	}

	rec := record{
		Kernel: "wheel2048-4ary-far-pooled",
		Benchmarks: map[string]metric{
			"event_throughput":      normalize(bestOf(3, benchThroughput), 1),
			"event_throughput_func": normalize(bestOf(3, benchThroughputFunc), 1),
			"schedule_deschedule":   normalize(bestOf(3, benchScheduleDeschedule), 1),
			"fan_out":               normalize(bestOf(3, benchFanOut), 64),
			"deep_queue":            normalize(bestOf(3, benchDeepQueue), 1),
		},
		HeapBaseline: heapBaseline(),
		SeedBaseline: seedBaseline(),
	}
	if seed := rec.SeedBaseline["event_throughput"].EventsPerSec; seed > 0 {
		rec.ThroughputSpeedupVsSeed = rec.Benchmarks["event_throughput"].EventsPerSec / seed
	}

	writeJSON(*out, rec)
	fmt.Printf("simbench: event_throughput %.2f ns/event (%.0f events/sec, %.2gx seed), %g allocs/event -> %s\n",
		rec.Benchmarks["event_throughput"].NsPerEvent,
		rec.Benchmarks["event_throughput"].EventsPerSec,
		rec.ThroughputSpeedupVsSeed,
		rec.Benchmarks["event_throughput"].AllocsPerEvent,
		*out)
}
