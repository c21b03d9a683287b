// Package extmem models the external-memory baseline: a PartitionedVC /
// GridGraph-style out-of-core framework that splits the vertex set into
// contiguous intervals, keeps vertex state in DRAM, and streams each
// interval's edge partition from SSD on demand through a bounded DRAM
// partition cache.
//
// The model is functional-plus-analytic, like the PolyGraph baseline:
// vertex updates execute functionally while time is charged in core clock
// cycles against two devices — DRAM streaming for edge processing and the
// SSD for partition loads. Loads for one round are issued in processing
// order at the round's start, so up to QueueDepth transfers overlap the
// computation (the standard prefetch pipeline of out-of-core engines);
// compute stalls only when it reaches a partition whose load has not
// completed, and that exposed latency is the io_stall_ticks component
// NOVA's in-situ spill path is compared against.
package extmem

import (
	"context"
	"fmt"

	"nova/graph"
	"nova/internal/harness"
	"nova/internal/mem"
	"nova/internal/sim"
	"nova/internal/stats"
	"nova/program"
)

// Metric names for the root-level statistics the external-memory engine
// exports (stable dump paths). partition_loads, bytes_paged and
// io_stall_ticks are shared with the NOVA engine's out-of-core tier, which
// is what lets the spill/recovery comparison stack them side by side.
const (
	MetricPartitionLoads = "partition_loads"
	MetricBytesPaged     = "bytes_paged"
	MetricIOStallTicks   = "io_stall_ticks"
	MetricCacheHitRate   = "cache_hit_rate"
	MetricPartitions     = "partitions"
	MetricRounds         = "rounds"
	MetricCycles         = "cycles"
	MetricComputeCycles  = "compute_cycles"
	MetricEvictions      = "evictions"
)

// Config describes the external-memory machine.
type Config struct {
	// RAMBytes is the DRAM partition-cache budget. Partitions beyond it
	// are evicted least-recently-used and pay an SSD load on reuse.
	RAMBytes int64
	// PartitionEdges is the target edge count per vertex interval.
	PartitionEdges int64
	// SSD is the paging device timing (mem.NVMeSSDConfig /
	// mem.SATASSDConfig presets at a 2 GHz core clock).
	SSD mem.SSDConfig
	// MemBandwidth is DRAM streaming bandwidth in bytes per core cycle
	// (default 166.4, i.e. 332.8 GB/s at 2 GHz — the iso-bandwidth
	// setting the PolyGraph baseline uses).
	MemBandwidth float64
	// EdgeBytes sizes one stored edge (default 8: destination + weight).
	EdgeBytes int
	// ClockHz converts cycles to seconds (default 2 GHz).
	ClockHz float64
}

// DefaultConfig returns a 256 MiB-DRAM external-memory machine with an
// NVMe paging device.
func DefaultConfig() Config {
	return Config{
		RAMBytes:       256 << 20,
		PartitionEdges: 1 << 20,
		SSD:            mem.NVMeSSDConfig("ssd"),
		MemBandwidth:   166.4,
		EdgeBytes:      8,
		ClockHz:        2e9,
	}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.RAMBytes <= 0:
		return fmt.Errorf("extmem: RAMBytes = %d", c.RAMBytes)
	case c.PartitionEdges <= 0:
		return fmt.Errorf("extmem: PartitionEdges = %d", c.PartitionEdges)
	case c.MemBandwidth <= 0:
		return fmt.Errorf("extmem: MemBandwidth = %v", c.MemBandwidth)
	case c.EdgeBytes <= 0:
		return fmt.Errorf("extmem: EdgeBytes = %d", c.EdgeBytes)
	case c.ClockHz <= 0:
		return fmt.Errorf("extmem: ClockHz = %v", c.ClockHz)
	}
	return c.SSD.Validate()
}

type machine struct {
	cfg     Config
	ctx     context.Context
	g       *graph.CSR
	p       program.Program
	prep    program.PropPreparer
	selfUpd program.SelfUpdating

	// Interval schedule: partition pi owns vertices [bounds[pi], bounds[pi+1]).
	bounds []int
	partOf []int32
	// partBytes is each partition's on-SSD footprint (rows + edges).
	partBytes []int64

	props []program.Prop

	// DRAM partition cache (simulated): resident set + LRU stamps.
	resident  []bool
	lastUse   []uint64
	loadDone  []sim.Ticks
	cachedNow int64
	useTick   uint64

	// dev is the queue-slot device, clocked explicitly (ReadAt) so the
	// analytic model needs no event engine.
	dev   *mem.SSD
	clock sim.Ticks

	stats          program.RunStats
	computeTicks   sim.Ticks
	ioStallTicks   sim.Ticks
	partitionLoads uint64
	cacheHits      uint64
	evictions      uint64
	rounds         int
	// loadsPerPart nests per-partition load counts in the stats tree.
	loadsPerPart []int64

	root *stats.Group
}

// Run executes p on g under the external-memory model. Only asynchronous
// programs (bfs, sssp, cc, prdelta) are supported: interval-at-a-time
// processing has no global barrier to hang a BSP epoch on, which is
// exactly the trade-off the paper's comparison is about. ctx cancellation
// is polled per round and per partition; on a cooperative stop Run
// salvages the statistics so far and returns BOTH a report marked Partial
// and the error. The report carries the props, RunStats and stats dump;
// the modeled time, paging and cache counters are records of the dump.
func Run(ctx context.Context, cfg Config, g *graph.CSR, p program.Program) (*harness.Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if p.Mode() == program.BSP {
		return nil, fmt.Errorf("extmem: %s is bulk-synchronous; the external-memory baseline runs asynchronous programs only (bfs, sssp, cc, prdelta)", p.Name())
	}
	if ctx == nil {
		ctx = context.Background()
	}
	m := &machine{cfg: cfg, ctx: ctx, g: g, p: p}
	m.prep, _ = p.(program.PropPreparer)
	m.selfUpd, _ = p.(program.SelfUpdating)
	m.setup()
	err := m.run()
	reason := sim.ReasonFor(err)
	if err != nil && reason == "" {
		return nil, err
	}
	m.stats.SimSeconds = float64(m.clock) / m.cfg.ClockHz
	return &harness.Report{
		Props: m.props,
		Stats: m.stats,
		Dump: m.root.Dump(map[string]string{
			"engine":  "extmem",
			"program": m.p.Name(),
			"graph":   m.g.Name,
		}),
		Partial:    reason != "",
		StopReason: string(reason),
	}, err
}

func (m *machine) setup() {
	g := m.g
	n := g.NumVertices()
	// Greedy interval split: grow each partition until it exceeds the
	// edge target (always at least one vertex per partition).
	m.bounds = []int{0}
	var acc int64
	for v := 0; v < n; v++ {
		acc += g.RowPtr[v+1] - g.RowPtr[v]
		if acc >= m.cfg.PartitionEdges && v+1 < n {
			m.bounds = append(m.bounds, v+1)
			acc = 0
		}
	}
	m.bounds = append(m.bounds, n)
	parts := len(m.bounds) - 1
	m.partOf = make([]int32, n)
	m.partBytes = make([]int64, parts)
	for pi := 0; pi < parts; pi++ {
		lo, hi := m.bounds[pi], m.bounds[pi+1]
		for v := lo; v < hi; v++ {
			m.partOf[v] = int32(pi)
		}
		edges := g.RowPtr[hi] - g.RowPtr[lo]
		m.partBytes[pi] = int64(hi-lo+1)*8 + edges*int64(m.cfg.EdgeBytes)
	}
	m.resident = make([]bool, parts)
	m.lastUse = make([]uint64, parts)
	m.loadDone = make([]sim.Ticks, parts)
	m.loadsPerPart = make([]int64, parts)
	m.dev = mem.NewSSD(nil, m.cfg.SSD)
	m.props = make([]program.Prop, n)
	for v := range m.props {
		m.props[v] = m.p.InitProp(graph.VertexID(v), g)
	}
	m.buildStatsTree()
}

// buildStatsTree registers the machine's statistics: root-level formulas
// over the accumulators carry the headline metric names, evaluated when
// Run dumps the tree, and per-partition detail nests under part<i>.
func (m *machine) buildStatsTree() {
	root := stats.NewRoot()
	m.root = root
	root.Formula(func() float64 { return float64(m.clock) },
		MetricCycles, stats.Cycles, "modeled cycles to completion (compute + exposed I/O stalls)")
	root.Formula(func() float64 { return float64(m.computeTicks) },
		MetricComputeCycles, stats.Cycles, "DRAM-streaming compute share of the modeled time")
	root.Formula(func() float64 { return float64(m.ioStallTicks) },
		MetricIOStallTicks, stats.Cycles, "SSD load latency the prefetch pipeline could not hide")
	root.Formula(func() float64 { return float64(m.partitionLoads) },
		MetricPartitionLoads, stats.Count, "edge partitions read from the SSD")
	root.Formula(func() float64 { return float64(m.dev.Stats().BytesPaged) },
		MetricBytesPaged, stats.Bytes, "page-rounded bytes read from the SSD")
	root.Formula(func() float64 {
		if touches := m.partitionLoads + m.cacheHits; touches > 0 {
			return float64(m.cacheHits) / float64(touches)
		}
		return 0
	}, MetricCacheHitRate, stats.Ratio, "partition touches served from the DRAM cache")
	root.Formula(func() float64 { return float64(len(m.partBytes)) },
		MetricPartitions, stats.Count, "vertex intervals in the schedule")
	root.Formula(func() float64 { return float64(m.rounds) },
		MetricRounds, stats.Count, "outer rounds over the interval schedule")
	root.Formula(func() float64 { return float64(m.evictions) },
		MetricEvictions, stats.Count, "partitions evicted from the DRAM cache")
	for pi := range m.loadsPerPart {
		pg := root.Group(fmt.Sprintf("part%d", pi))
		pg.Int64(&m.loadsPerPart[pi], "loads", stats.Count, "times this partition was read from the SSD")
		pg.Int64(&m.partBytes[pi], "bytes", stats.Bytes, "partition footprint on the SSD (rows + edges)")
	}
}

// touch marks pi most-recently-used and, on a miss, issues its load at
// time `at`, evicting LRU residents until the partition fits the RAM
// budget. Returns the tick compute may start processing pi.
func (m *machine) touch(pi int, at sim.Ticks) sim.Ticks {
	m.useTick++
	m.lastUse[pi] = m.useTick
	if m.resident[pi] {
		m.cacheHits++
		return at
	}
	for m.cachedNow+m.partBytes[pi] > m.cfg.RAMBytes {
		victim := -1
		for i, r := range m.resident {
			if r && (victim < 0 || m.lastUse[i] < m.lastUse[victim]) {
				victim = i
			}
		}
		if victim < 0 {
			break // partition larger than RAM: stream it anyway
		}
		m.resident[victim] = false
		m.cachedNow -= m.partBytes[victim]
		m.evictions++
	}
	// A partition starts its own pages: address 0 rounds its bytes up.
	complete := m.dev.ReadAt(at, 0, int(m.partBytes[pi]))
	m.partitionLoads++
	m.loadsPerPart[pi]++
	m.resident[pi] = true
	m.cachedNow += m.partBytes[pi]
	m.loadDone[pi] = complete
	return complete
}

// maxRounds bounds the outer loop: a run still pending after it is
// reported as a non-monotone program.
const maxRounds = 1 << 20

// selfSeed marks worklist seeds that are activations, not real messages.
const selfSeed = program.Prop(1<<64 - 2)

// run is the interval-at-a-time loop: each round sweeps the partitions
// with pending work in interval order, prefetching the round's misses
// through the SSD queue before compute reaches them.
func (m *machine) run() error {
	g := m.g
	pending := make([][]program.Message, len(m.partBytes))
	for _, v := range m.p.InitActive(g) {
		pending[m.partOf[v]] = append(pending[m.partOf[v]], program.Message{Dst: v, Delta: selfSeed})
	}
	inQueue := make([]bool, g.NumVertices())
	var work []graph.VertexID

	for round := 0; round < maxRounds; round++ {
		if err := m.ctx.Err(); err != nil {
			return err
		}
		var todo []int
		for pi := range pending {
			if len(pending[pi]) > 0 {
				todo = append(todo, pi)
			}
		}
		if len(todo) == 0 {
			return nil
		}
		m.rounds++
		// Prefetch: issue every miss in processing order now; the device
		// overlaps up to QueueDepth transfers with the compute below.
		ready := make([]sim.Ticks, len(todo))
		for i, pi := range todo {
			ready[i] = m.touch(pi, m.clock)
		}
		for i, pi := range todo {
			if err := m.ctx.Err(); err != nil {
				return err
			}
			if ready[i] > m.clock {
				m.ioStallTicks += ready[i] - m.clock
				m.clock = ready[i]
			}
			batch := pending[pi]
			pending[pi] = batch[:0]
			var passEdges int64
			// Reduce the buffered messages, then drain the interval-local
			// worklist (same coalescing semantics as the PolyGraph model:
			// duplicates merge in the worklist, remote updates buffer).
			for _, msg := range batch {
				v := msg.Dst
				if msg.Delta != selfSeed {
					next := m.p.Reduce(v, m.props[v], msg.Delta)
					if next == m.props[v] {
						continue
					}
					m.props[v] = next
				}
				if !inQueue[v] {
					inQueue[v] = true
					work = append(work, v)
				} else {
					m.stats.MessagesCoalesced++
				}
			}
			for qi := 0; qi < len(work); qi++ {
				v := work[qi]
				inQueue[v] = false
				prop := m.props[v]
				if m.selfUpd != nil {
					m.props[v], prop = m.selfUpd.OnPropagate(v, m.props[v])
				}
				if m.prep != nil {
					prop = m.prep.PrepareProp(v, prop)
				}
				lo, hi := g.RowPtr[v], g.RowPtr[v+1]
				outDeg := hi - lo
				for e := lo; e < hi; e++ {
					delta, ok := m.p.Propagate(prop, g.Weight[e], outDeg)
					if !ok {
						continue
					}
					passEdges++
					m.stats.EdgesTraversed++
					m.stats.MessagesSent++
					dst := g.Dst[e]
					if m.partOf[dst] == int32(pi) {
						if inQueue[dst] {
							m.stats.MessagesCoalesced++
						}
						next := m.p.Reduce(dst, m.props[dst], delta)
						if next != m.props[dst] {
							m.props[dst] = next
							if !inQueue[dst] {
								inQueue[dst] = true
								work = append(work, dst)
							}
						}
					} else {
						pending[m.partOf[dst]] = append(pending[m.partOf[dst]], program.Message{Dst: dst, Delta: delta})
					}
				}
			}
			work = work[:0]
			compute := sim.Ticks(float64(passEdges*int64(m.cfg.EdgeBytes))/m.cfg.MemBandwidth + 0.999999)
			m.computeTicks += compute
			m.clock += compute
		}
	}
	return fmt.Errorf("%w: extmem round budget exhausted (non-monotone program?)", sim.ErrMaxEvents)
}
