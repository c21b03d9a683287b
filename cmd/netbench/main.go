// Command netbench measures the inter-GPN fabric hot paths and records
// the machine-readable result that `make bench-net` commits as
// BENCH_net.json. The record has two halves:
//
//   - benchmarks: testing.Benchmark micro-measurements of the fabric's
//     send/route/deliver path per topology, the outbox Exchange path,
//     and the coalescing absorb path. All of them must stay
//     allocation-free in steady state (`make bench-net` gates
//     allocs_per_event at exactly 0 through cmd/benchdiff).
//   - macro: one medium SSSP cell and one medium spill-stress (delta
//     PageRank, shrunk active buffers) cell run coalescing-off and
//     coalescing-on, with the simulated-event and wall-clock speedups
//     the coalescing stage buys on the default crossbar.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"nova"
	"nova/internal/exp"
	"nova/internal/harness"
	"nova/internal/network"
	"nova/internal/sim"
	"nova/program"
)

// metric is one benchmark's normalized result (the BENCH_sim.json shape,
// so one benchdiff invocation can gate either record).
type metric struct {
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
	EventsPerSec   float64 `json:"events_per_sec"`
}

// bestOf keeps the fastest of n runs: transient noise only ever makes a
// run slower, so the minimum is the stable statistic.
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

// benchGPNs is the fabric size for the micro-benchmarks: 8 GPNs gives
// every routed topology multi-hop routes (2x4 mesh, 8-ring).
const benchGPNs = 8

func microFabric(kind network.TopoKind, engines []*sim.Engine, coalesce network.CoalesceConfig, vertices int) *network.Hierarchical {
	return network.NewFabric(engines, 1, network.FabricConfig{
		P2P:      network.DefaultP2PConfig(),
		Crossbar: network.DefaultCrossbarConfig(),
		Link:     network.DefaultLinkConfig(),
		Topology: kind,
		Coalesce: coalesce,
		Vertices: vertices,
	})
}

// benchSend measures one cross-GPN message through the shared-engine
// fast path: route lookup, per-hop link reservation, delivery event.
// The destination is the farthest GPN so routed topologies pay their
// full hop count. Each iteration drains the engine, so the event pool
// recycles and steady state is allocation-free.
func benchSend(kind network.TopoKind) func(*testing.B) {
	return func(b *testing.B) {
		eng := sim.NewEngine()
		f := microFabric(kind, network.SharedEngines(eng, benchGPNs), network.CoalesceConfig{}, 0)
		h := sim.HandlerFunc(func() {})
		dst := benchGPNs / 2 // diametrically opposite on the ring, interior on the mesh
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Send(0, dst, 8, h)
			if err := eng.RunUntilQuiet(0); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchExchange measures the sharded path: Send parks the message in the
// source shard's outbox, Exchange recomputes the route and schedules the
// delivery on the destination shard.
func benchExchange(kind network.TopoKind) func(*testing.B) {
	return func(b *testing.B) {
		engines := make([]*sim.Engine, benchGPNs)
		for i := range engines {
			engines[i] = sim.NewEngine()
		}
		f := microFabric(kind, engines, network.CoalesceConfig{}, 0)
		h := sim.HandlerFunc(func() {})
		dst := benchGPNs / 2
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Send(0, dst, 8, h)
			if _, err := f.Exchange(); err != nil {
				b.Fatal(err)
			}
			if err := engines[dst].RunUntilQuiet(0); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// nbBatch is the minimal Batch the coalescing benchmark feeds the fabric.
type nbBatch struct{ msgs []program.Message }

func (b *nbBatch) Fire()                          {}
func (b *nbBatch) Payload() []program.Message     { return b.msgs }
func (b *nbBatch) SetPayload(m []program.Message) { b.msgs = m }
func (b *nbBatch) Discard()                       {}
func minMerge(a, bb program.Prop) program.Prop {
	if bb < a {
		return bb
	}
	return a
}

// benchCoalesce measures the absorb path: the second batch of every
// iteration merges into the buffered head via the vertex index, then the
// window timer flushes the pair as one fabric message.
func benchCoalesce(b *testing.B) {
	eng := sim.NewEngine()
	f := microFabric(network.TopoCrossbar, network.SharedEngines(eng, 2), network.CoalesceConfig{Window: 8}, 8)
	f.SetMerge(minMerge)
	b1 := &nbBatch{msgs: make([]program.Message, 1, 4)}
	b2 := &nbBatch{msgs: make([]program.Message, 1, 4)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b1.msgs = b1.msgs[:1]
		b1.msgs[0] = program.Message{Dst: 1, Delta: 5}
		b2.msgs = b2.msgs[:1]
		b2.msgs[0] = program.Message{Dst: 1, Delta: 3}
		f.Send(0, 1, 8, b1)
		f.Send(0, 1, 8, b2)
		if err := eng.RunUntilQuiet(0); err != nil {
			b.Fatal(err)
		}
	}
}

// macroWindow is the coalescing window the macro cells enable — wide
// enough that merged batches amortize the added delivery latency on the
// medium tier (the probe sweep: 16 trades even, 64 wins on events,
// cycles, and wall clock).
const macroWindow = 64

// macroCell is one macro run's record.
type macroCell struct {
	WallMillis    float64 `json:"wall_ms"`
	SimMillis     float64 `json:"sim_ms"`
	Events        float64 `json:"events"`
	InterMessages float64 `json:"inter_messages"`
	Coalesced     float64 `json:"coalesced"`
}

// macroPair is the off/on comparison for one workload cell. The speedup
// fields are higher-is-better under benchdiff's path rules.
type macroPair struct {
	Off           macroCell `json:"off"`
	On            macroCell `json:"on"`
	EventsSpeedup float64   `json:"events_speedup"`
	SimSpeedup    float64   `json:"sim_speedup"`
	WallSpeedup   float64   `json:"wall_speedup"`
}

func runMacroCell(ctx context.Context, scale exp.Scale, shards int, w harness.Workload, buffers int, window int64) (macroCell, error) {
	cfg := exp.NOVAConfig(scale, nova.DefaultConfig(), 4)
	cfg.Shards = shards
	cfg.Topology = "crossbar"
	cfg.CoalesceWindow = window
	if buffers > 0 {
		cfg.ActiveBufferEntries = buffers
	}
	eng, err := exp.NovaEngine(cfg)
	if err != nil {
		return macroCell{}, err
	}
	start := time.Now()
	rep, err := eng.RunWorkload(ctx, w)
	if err != nil {
		return macroCell{}, err
	}
	return macroCell{
		WallMillis:    float64(time.Since(start)) / float64(time.Millisecond),
		SimMillis:     rep.Stats.SimSeconds * 1e3,
		Events:        rep.Metric(nova.MetricEventsExecuted),
		InterMessages: rep.Metric("network.inter_messages"),
		Coalesced:     rep.Metric(nova.MetricNetworkCoalesced),
	}, nil
}

func runMacroPair(ctx context.Context, scale exp.Scale, shards int, w harness.Workload, buffers int) (macroPair, error) {
	off, err := runMacroCell(ctx, scale, shards, w, buffers, 0)
	if err != nil {
		return macroPair{}, err
	}
	on, err := runMacroCell(ctx, scale, shards, w, buffers, macroWindow)
	if err != nil {
		return macroPair{}, err
	}
	p := macroPair{Off: off, On: on}
	if on.Events > 0 {
		p.EventsSpeedup = off.Events / on.Events
	}
	if on.SimMillis > 0 {
		p.SimSpeedup = off.SimMillis / on.SimMillis
	}
	if on.WallMillis > 0 {
		p.WallSpeedup = off.WallMillis / on.WallMillis
	}
	return p, nil
}

// record is the BENCH_net.json schema.
type record struct {
	Fabric      string               `json:"fabric"`
	GPNs        int                  `json:"gpns"`
	MacroScale  string               `json:"macro_scale"`
	MacroWindow int64                `json:"macro_coalesce_window"`
	Benchmarks  map[string]metric    `json:"benchmarks"`
	Macro       map[string]macroPair `json:"macro"`
}

func main() {
	out := flag.String("o", "BENCH_net.json", "output path")
	scaleFlag := flag.String("scale", "medium", "macro-cell dataset scale: small|medium|full|large")
	shards := flag.Int("shards", 4, "worker goroutines for the macro cells (results bit-identical at every setting)")
	skipMacro := flag.Bool("micro-only", false, "skip the macro cells (quick allocation gate)")
	flag.Parse()

	scale, err := exp.ParseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}

	rec := record{
		Fabric:      "topology-fabric",
		GPNs:        benchGPNs,
		MacroScale:  scale.String(),
		MacroWindow: macroWindow,
		Benchmarks:  map[string]metric{},
		Macro:       map[string]macroPair{},
	}
	topos := map[string]network.TopoKind{
		"crossbar": network.TopoCrossbar,
		"ring":     network.TopoRing,
		"mesh":     network.TopoMesh,
		"torus":    network.TopoTorus,
	}
	for name, kind := range topos {
		rec.Benchmarks["send_"+name] = normalize(bestOf(3, benchSend(kind)), 1)
		rec.Benchmarks["exchange_"+name] = normalize(bestOf(3, benchExchange(kind)), 1)
	}
	rec.Benchmarks["coalesce_absorb"] = normalize(bestOf(3, benchCoalesce), 2)
	for name, m := range rec.Benchmarks {
		fmt.Printf("netbench: %-17s %8.2f ns/event  %g allocs/event\n", name, m.NsPerEvent, m.AllocsPerEvent)
	}

	if !*skipMacro {
		d, err := exp.DatasetByName(scale, "twitter")
		if err != nil {
			fatal(err)
		}
		ctx := context.Background()
		sssp := harness.Workload{Name: "sssp", G: d.Graph, Root: d.Root, Tier: scale.String()}
		pair, err := runMacroPair(ctx, scale, *shards, sssp, 0)
		if err != nil {
			fatal(fmt.Errorf("sssp macro: %w", err))
		}
		rec.Macro["sssp"] = pair
		// Spill-stress flavor: delta PageRank with the active buffers shrunk
		// far below the active set, so the VMU spills while the fabric
		// carries the residual traffic.
		spill := harness.Workload{Name: "prdelta", G: d.Graph, Root: d.Root, PRIters: 3, Tier: scale.String()}
		pair, err = runMacroPair(ctx, scale, *shards, spill, 8)
		if err != nil {
			fatal(fmt.Errorf("prdelta macro: %w", err))
		}
		rec.Macro["prdelta_spill"] = pair
		for name, p := range rec.Macro {
			fmt.Printf("netbench: macro %-14s events %.3gx, sim %.3gx, wall %.2fx (coalesced %.0f)\n",
				name, p.EventsSpeedup, p.SimSpeedup, p.WallSpeedup, p.On.Coalesced)
		}
	}

	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("netbench: record written to %s\n", *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "netbench:", err)
	os.Exit(1)
}
