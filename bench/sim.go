package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"nova"
	"nova/graph"
	"nova/internal/harness"
	"nova/internal/ref"
	"nova/program"
)

// minOps is the fewest operations a run measures, however long they take.
const minOps = 3

// simWorkload repeats one figure cell: the same program on the same graph
// under the same NOVA configuration, cell after cell, so every cell does
// identical simulated work and its host time is the measurement.
type simWorkload struct {
	program      string // harness workload name
	gpns, shards int
	cacheBytes   int
	activeBuffer int
	coalesce     int64
	gen          func(seed int64) *graph.CSR
}

func (s simWorkload) config(shards int) nova.Config {
	cfg := nova.DefaultConfig()
	cfg.GPNs = s.gpns
	cfg.Shards = shards
	cfg.CacheBytesPerPE = s.cacheBytes
	cfg.ActiveBufferEntries = s.activeBuffer
	cfg.Topology = "crossbar"
	cfg.CoalesceWindow = s.coalesce
	return cfg
}

func (s simWorkload) run(rc runConfig) (*workloadRecord, error) {
	var (
		g            *graph.CSR
		acc          *nova.Accelerator
		root         graph.VertexID
		gens, traced []float64
		ctx          = context.Background()
		cfg          = s.config(s.shards)
		rec          = &workloadRecord{}
		ops          measured
		alloc        allocMeter
		hs           hostSpeed
		cells        []cellCounts
		twoShardMS   float64
		op           int
	)
	setups, err := timeSetups(&hs, func() (float64, error) {
		g, acc = nil, nil
		runtime.GC()
		t0 := time.Now()
		g = s.gen(rc.seed)
		gens = append(gens, time.Since(t0).Seconds())
		var err error
		if acc, err = nova.New(cfg); err != nil {
			return 0, err
		}
		root = g.LargestOutDegreeVertex()
		return time.Since(t0).Seconds(), nil
	})
	if err != nil {
		return nil, err
	}
	w := harness.Workload{Name: s.program, G: g, Root: root}
	prog, err := programFor(s.program, root)
	if err != nil {
		return nil, err
	}
	check := oracle(s.program, g, root)

	// verify checks one cell's output and holds its simulated counts to
	// the first cell's: the run repeats one deterministic simulation.
	verify := func(props []program.Prop, c cellCounts) error {
		if err := check(props); err != nil {
			return err
		}
		if rec.Exact == nil {
			rec.Exact = map[string]float64{"sim.events": c.events, "core.cycles": c.cycles}
			return nil
		}
		if c.events != rec.Exact["sim.events"] || c.cycles != rec.Exact["core.cycles"] {
			return fmt.Errorf("cell simulated %.0f events in %.0f cycles, the first %.0f in %.0f",
				c.events, c.cycles, rec.Exact["sim.events"], rec.Exact["core.cycles"])
		}
		return nil
	}
	// cell runs one untraced cell through the harness engine, as every
	// sweep does, and returns its wall time in ms.
	cell := func(eng harness.Engine) float64 {
		t0 := time.Now()
		rep, err := eng.RunWorkload(ctx, w)
		ms := float64(time.Since(t0)) / float64(time.Millisecond)
		rec.Attempted++
		if err == nil {
			err = verify(rep.Props, cellCounts{events: rep.Metric(nova.MetricEventsExecuted), cycles: rep.Metric(nova.MetricCycles)})
		}
		if err != nil {
			rec.fail(err)
		}
		return ms
	}

	eng := acc.Engine()
	// The first cells of a process run slow while the Go heap grows to
	// its steady size: they are checked but not measured.
	for t0 := time.Now(); time.Since(t0) < rc.warmup || rec.Attempted == 0; {
		cell(eng)
	}
	if rc.tr != nil {
		// One cell at twice the shards, with a P for each, for
		// sim.shard_speedup.
		two, err := nova.New(s.config(2 * s.shards))
		if err != nil {
			return nil, err
		}
		prev := runtime.GOMAXPROCS(2 * s.shards)
		twoShardMS = cell(two.Engine())
		runtime.GOMAXPROCS(prev)
	}
	hs.sample() // the first measured cell's leading timing
	start := time.Now()
	for len(ops.raw) < minOps || time.Since(start) < rc.seconds {
		alloc.begin()
		ms := cell(eng)
		alloc.end(1)
		hs.sample()
		ops.add(ms, hs.bracket())
		if rc.tr == nil {
			continue
		}
		// Traced cells alternate with untraced ones, so the overhead
		// estimate sees the same host conditions on both sides.
		op++
		rep, ms, err := tracedCell(ctx, rc.tr, op, acc, w, prog)
		rec.Attempted++
		var c cellCounts
		if err == nil {
			c = countsOf(rep)
			err = verify(rep.Props, c)
		}
		if err != nil {
			rec.fail(err)
			continue
		}
		traced = append(traced, ms)
		cells = append(cells, c)
	}
	rec.Correct = rec.Failed == 0
	if rc.tr == nil {
		// Cells run back to back, so their summed time is the wall time.
		ops.wall, ops.scaledWall = sum(ops.raw)/1e3, sum(ops.scaled)/1e3
		rec.setEndToEnd(&setups, &ops, &hs)
		return rec, nil
	}
	rec.Latency = summarize(ops.raw)
	m := newLayerMetrics()
	layerFromCells(m, rc.tr.totals(), cells, g.NumVertices())
	m.set("graph.gen_s", median(gens))
	m.set("graph.partition_s", timePartition(g, cfg))
	m.set("sim.shard_speedup", median(ops.raw)/twoShardMS)
	mb, gcs := alloc.perOp()
	m.set("go.alloc_mb_per_op", mb)
	m.set("go.gc_per_op", gcs)
	m.set("trace.overhead_frac", median(traced)/median(ops.raw)-1)
	rec.Metrics = m
	return rec, nil
}

// timePartition times graph.PartitionRandom over the configuration's PEs,
// the vertex placement every NOVA run computes before it simulates, and
// returns the median of three in seconds.
func timePartition(g *graph.CSR, cfg nova.Config) float64 {
	var ts []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		graph.PartitionRandom(g.NumVertices(), cfg.GPNs*cfg.PEsPerGPN, cfg.Seed)
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts)
}

// programFor builds the program nova's harness adapter runs for a
// workload, for traced cells, which call RunContext directly. The
// determinism check (equal events and cycles on every cell, traced or
// not) catches any drift from the adapter's choice.
func programFor(name string, root graph.VertexID) (program.Program, error) {
	switch name {
	case "bfs":
		return program.NewBFS(root), nil
	case "sssp":
		return program.NewSSSP(root), nil
	case "pr":
		return program.NewPageRank(0.85, 10), nil
	case "prdelta":
		return program.NewPRDelta(0.85, 1e-7), nil
	}
	return nil, fmt.Errorf("no program for workload %q", name)
}

// oracle returns the check every cell's output must pass, built once per
// run. The tolerances are the repository tests': exact distances for
// SSSP, 1e-9 against the reference PageRank for BSP PageRank, and, for
// the order-sensitive delta PageRank, 1e-4 + 2% against the functional
// executor running the same program (the reference PageRank is the wrong
// oracle there: it is a different, fixed-iteration computation).
func oracle(name string, g *graph.CSR, root graph.VertexID) func([]program.Prop) error {
	switch name {
	case "pr":
		want := ref.PageRank(g, 0.85, 10)
		return func(p []program.Prop) error {
			return within(p, want, func(p program.Prop) float64 { return p.Float() }, 1e-9, 0)
		}
	case "prdelta":
		exec, _ := program.Exec(program.NewPRDelta(0.85, 1e-7), g)
		want := make([]float64, len(exec))
		for v, p := range exec {
			want[v] = program.PRDeltaRank(p)
		}
		return func(p []program.Prop) error { return within(p, want, program.PRDeltaRank, 1e-4, 0.02) }
	default:
		return func(p []program.Prop) error { return nova.Verify(name, g, root, p) }
	}
}

// within checks |value(p[v]) − want[v]| ≤ abs + rel·want[v] for every v.
func within(p []program.Prop, want []float64, value func(program.Prop) float64, abs, rel float64) error {
	if len(p) != len(want) {
		return fmt.Errorf("got %d properties, want %d", len(p), len(want))
	}
	for v := range want {
		if got := value(p[v]); math.Abs(got-want[v]) > abs+rel*want[v] {
			return fmt.Errorf("vertex %d: got %v, want %v", v, got, want[v])
		}
	}
	return nil
}

// Sinks keep the traced calls' results alive.
var (
	seqEdgesSink int64
	bagSink      map[string]float64
)

// tracedCell runs one cell the way nova's harness adapter does —
// SequentialEdges, RunContext, Dump.Bag — with a span around each call,
// then renders the dump as JSON the way novad and -stats-out do. Window
// and barrier time are read from the report and recorded as aggregate
// children of the run span (real windows interleave with barriers).
// It returns the report and the cell span's duration in ms.
func tracedCell(ctx context.Context, tr *tracer, op int, acc *nova.Accelerator, w harness.Workload, p program.Program) (*nova.Report, float64, error) {
	cell := tr.begin(op, 0, "bench.cell", "bench")
	tr.call(op, cell, "ref.SequentialEdges", "ref", func() {
		seqEdgesSink = nova.SequentialEdges(w.G, w.Root, w.Name, 10)
	})
	run := tr.begin(op, cell, "nova.RunContext", "core")
	rep, err := acc.RunContext(ctx, p, w.G)
	tr.end(run)
	if err == nil && rep.Partial {
		err = errors.New("partial run: " + rep.StopReason)
	}
	if err != nil {
		tr.end(cell)
		return nil, 0, err
	}
	if rep.WindowWallSeconds > 0 {
		tr.add(op, run, "sim.window", "sim", 0, rep.WindowWallSeconds)
	}
	if rep.BarrierWallSeconds > 0 {
		tr.add(op, run, "sim.barrier", "sim", rep.WindowWallSeconds, rep.BarrierWallSeconds)
	}
	tr.call(op, cell, "stats.Dump.Bag", "stats", func() { bagSink = rep.Dump.Bag() })
	ms := tr.end(cell) * 1e3
	tr.call(op, 0, "stats.Dump.WriteJSON", "stats", func() { err = rep.Dump.WriteJSON(io.Discard) })
	return rep, ms, err
}

// cellCounts are the simulated counts one NOVA run reports.
type cellCounts struct {
	events, cycles, windows, spills, recoveryHitRate      float64
	cacheHitRate, loadImbalance, interMessages, coalesced float64
	records                                               float64
}

func countsOf(rep *nova.Report) cellCounts {
	val := func(path string) float64 { v, _ := rep.Dump.Value(path); return v }
	return cellCounts{
		events:          val(nova.MetricEventsExecuted),
		cycles:          float64(rep.Cycles),
		windows:         float64(rep.Windows),
		spills:          float64(rep.Spills),
		recoveryHitRate: val(nova.MetricRecoveryHitRate),
		cacheHitRate:    rep.CacheHitRate,
		loadImbalance:   rep.LoadImbalance,
		interMessages:   val("network.inter_messages"),
		coalesced:       float64(rep.NetworkMessagesCoalesced),
		records:         float64(len(rep.Dump.Records)),
	}
}

// layerFromCells sets the ref, sim, core, network and stats metrics from
// traced cells: times per cell from the spans, counts as per-cell means.
func layerFromCells(m layerMetrics, tot map[string]*spanTotals, cells []cellCounts, vertices int) {
	if len(cells) == 0 {
		return
	}
	n := float64(len(cells))
	mean := func(f func(cellCounts) float64) float64 {
		var s float64
		for _, c := range cells {
			s += f(c)
		}
		return s / n
	}
	get := func(name string) spanTotals {
		if a := tot[name]; a != nil {
			return *a
		}
		return spanTotals{}
	}
	run := get("nova.RunContext")
	events := mean(func(c cellCounts) float64 { return c.events })
	windows := mean(func(c cellCounts) float64 { return c.windows })
	m.set("ref.seq_edges_s", get("ref.SequentialEdges").Total/n)
	m.set("sim.events", events)
	m.set("sim.ns_per_event", run.Total/n/events*1e9)
	m.set("sim.windows", windows)
	if windows > 0 {
		m.set("sim.events_per_window", events/windows)
	}
	m.set("sim.window_frac", get("sim.window").Total/run.Total)
	m.set("sim.barrier_frac", get("sim.barrier").Total/run.Total)
	m.set("core.serial_frac", run.Self/run.Total)
	m.set("core.cycles", mean(func(c cellCounts) float64 { return c.cycles }))
	m.set("core.spills_per_vertex", mean(func(c cellCounts) float64 { return c.spills })/float64(vertices))
	m.set("core.recovery_hit_rate", mean(func(c cellCounts) float64 { return c.recoveryHitRate }))
	m.set("core.cache_hit_rate", mean(func(c cellCounts) float64 { return c.cacheHitRate }))
	m.set("core.load_imbalance", mean(func(c cellCounts) float64 { return c.loadImbalance }))
	m.set("net.inter_messages", mean(func(c cellCounts) float64 { return c.interMessages }))
	m.set("net.coalesced", mean(func(c cellCounts) float64 { return c.coalesced }))
	m.set("stats.records", mean(func(c cellCounts) float64 { return c.records }))
	m.set("stats.bag_s", get("stats.Dump.Bag").Total/n)
	m.set("stats.dump_json_s", get("stats.Dump.WriteJSON").Total/n)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
