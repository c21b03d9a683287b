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
	// MaxRounds bounds the outer loop (0 = default).
	MaxRounds int
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

// Result reports one external-memory execution.
type Result struct {
	Props []program.Prop
	Stats program.RunStats
	// Ticks is total modeled time; ComputeTicks the DRAM-streaming
	// share, IOStallTicks the SSD latency compute could not hide.
	Ticks        sim.Ticks
	ComputeTicks sim.Ticks
	IOStallTicks sim.Ticks
	// PartitionLoads counts SSD partition reads; BytesPaged their
	// page-rounded volume; CacheHits reuses out of the DRAM cache.
	PartitionLoads uint64
	BytesPaged     uint64
	CacheHits      uint64
	Evictions      uint64
	CacheHitRate   float64
	// Partitions and Rounds describe the interval schedule.
	Partitions int
	Rounds     int
	// Partial marks a salvaged result from a run that stopped early;
	// StopReason classifies the cause.
	Partial    bool
	StopReason sim.StopReason
	// Dump is the full hierarchical statistics dump for the run.
	Dump *stats.Dump
}

// ssdModel is the queue-slot device: the same math as mem.SSD.PageIn, but
// clocked explicitly so the analytic model needs no event engine. Each
// read occupies the earliest-free of QueueDepth slots for its transfer and
// completes FixedLatency later.
type ssdModel struct {
	cfg      mem.SSDConfig
	slotFree []sim.Ticks
}

// read issues one partition read at time `now` and returns its completion
// time and page-rounded volume.
func (d *ssdModel) read(now sim.Ticks, bytes int64) (complete sim.Ticks, moved uint64) {
	pages := (uint64(bytes) + uint64(d.cfg.PageBytes) - 1) / uint64(d.cfg.PageBytes)
	if pages == 0 {
		pages = 1
	}
	moved = pages * uint64(d.cfg.PageBytes)
	service := sim.Ticks(float64(moved)/d.cfg.BytesPerCycle + 0.999999)
	if service == 0 {
		service = 1
	}
	slot := 0
	for i := 1; i < len(d.slotFree); i++ {
		if d.slotFree[i] < d.slotFree[slot] {
			slot = i
		}
	}
	start := now
	if d.slotFree[slot] > start {
		start = d.slotFree[slot]
	}
	d.slotFree[slot] = start + service
	return start + service + d.cfg.FixedLatency, moved
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

	dev   *ssdModel
	clock sim.Ticks

	stats          program.RunStats
	computeTicks   sim.Ticks
	ioStallTicks   sim.Ticks
	partitionLoads uint64
	bytesPaged     uint64
	cacheHits      uint64
	evictions      uint64
	rounds         int
	// loadsPerPart nests per-partition load counts in the stats tree.
	loadsPerPart []int64

	root   *stats.Group
	result *Result
}

// Run executes p on g under the external-memory model. Only asynchronous
// programs (bfs, sssp, cc, prdelta) are supported: interval-at-a-time
// processing has no global barrier to hang a BSP epoch on, which is
// exactly the trade-off the paper's comparison is about. ctx cancellation
// is polled per round and per partition; on a cooperative stop Run
// salvages the statistics so far and returns BOTH a Result marked Partial
// and the error.
func Run(ctx context.Context, cfg Config, g *graph.CSR, p program.Program) (*Result, error) {
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
	r := m.collect()
	r.Partial = reason != ""
	r.StopReason = reason
	return r, err
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
	m.dev = &ssdModel{cfg: m.cfg.SSD, slotFree: make([]sim.Ticks, m.cfg.SSD.QueueDepth)}
	m.props = make([]program.Prop, n)
	for v := range m.props {
		m.props[v] = m.p.InitProp(graph.VertexID(v), g)
	}
	m.buildStatsTree()
}

func (m *machine) buildStatsTree() {
	root := stats.NewRoot()
	m.root = root
	res := func(f func(r *Result) float64) func() float64 {
		return func() float64 {
			if m.result == nil {
				return 0
			}
			return f(m.result)
		}
	}
	root.Formula(res(func(r *Result) float64 { return float64(r.Ticks) }),
		MetricCycles, stats.Cycles, "modeled cycles to completion (compute + exposed I/O stalls)")
	root.Formula(res(func(r *Result) float64 { return float64(r.ComputeTicks) }),
		MetricComputeCycles, stats.Cycles, "DRAM-streaming compute share of the modeled time")
	root.Formula(res(func(r *Result) float64 { return float64(r.IOStallTicks) }),
		MetricIOStallTicks, stats.Cycles, "SSD load latency the prefetch pipeline could not hide")
	root.Formula(res(func(r *Result) float64 { return float64(r.PartitionLoads) }),
		MetricPartitionLoads, stats.Count, "edge partitions read from the SSD")
	root.Formula(res(func(r *Result) float64 { return float64(r.BytesPaged) }),
		MetricBytesPaged, stats.Bytes, "page-rounded bytes read from the SSD")
	root.Formula(res(func(r *Result) float64 { return r.CacheHitRate }),
		MetricCacheHitRate, stats.Ratio, "partition touches served from the DRAM cache")
	root.Formula(res(func(r *Result) float64 { return float64(r.Partitions) }),
		MetricPartitions, stats.Count, "vertex intervals in the schedule")
	root.Formula(res(func(r *Result) float64 { return float64(r.Rounds) }),
		MetricRounds, stats.Count, "outer rounds over the interval schedule")
	root.Formula(res(func(r *Result) float64 { return float64(r.Evictions) }),
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
	complete, moved := m.dev.read(at, m.partBytes[pi])
	m.partitionLoads++
	m.loadsPerPart[pi]++
	m.bytesPaged += moved
	m.resident[pi] = true
	m.cachedNow += m.partBytes[pi]
	m.loadDone[pi] = complete
	return complete
}

func (m *machine) maxRounds() int {
	if m.cfg.MaxRounds > 0 {
		return m.cfg.MaxRounds
	}
	return 1 << 20
}

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

	for round := 0; round < m.maxRounds(); round++ {
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

func (m *machine) collect() *Result {
	m.stats.SimSeconds = float64(m.clock) / m.cfg.ClockHz
	r := &Result{
		Props:          m.props,
		Stats:          m.stats,
		Ticks:          m.clock,
		ComputeTicks:   m.computeTicks,
		IOStallTicks:   m.ioStallTicks,
		PartitionLoads: m.partitionLoads,
		BytesPaged:     m.bytesPaged,
		CacheHits:      m.cacheHits,
		Evictions:      m.evictions,
		Partitions:     len(m.partBytes),
		Rounds:         m.rounds,
	}
	if touches := m.partitionLoads + m.cacheHits; touches > 0 {
		r.CacheHitRate = float64(m.cacheHits) / float64(touches)
	}
	// Set before dumping: the root formulas read m.result.
	m.result = r
	r.Dump = m.root.Dump(map[string]string{
		"engine":  "extmem",
		"program": m.p.Name(),
		"graph":   m.g.Name,
	})
	return r
}
