// Package polygraph models the paper's baseline: PolyGraph (Dadu et al.,
// ISCA 2021), a state-of-the-art graph accelerator that relies on temporal
// partitioning. Following the paper's methodology (Section V), we model the
// most optimized variant (Ss, Ac, Tw): asynchronous slice-local execution
// out of on-chip memory, slices processed until no new local messages are
// generated, parallelized slice switching that fully utilizes memory
// bandwidth, and work reordering that batches pending messages per
// destination vertex before processing a slice.
//
// The model is functional-plus-analytic: vertex state updates execute
// functionally while time is charged against the accelerator's unified
// memory bandwidth for the three components the paper measures in Fig. 2 —
// processing (first pass over a slice's work), switching (slice vertex I/O
// and replicated-vertex synchronization), and inefficiency (repeat passes
// caused by inter-slice dependencies).
package polygraph

import (
	"context"
	"errors"
	"fmt"

	"nova/graph"
	"nova/internal/sim"
	"nova/internal/stats"
	"nova/program"
)

// Metric names for the root-level statistics the PolyGraph engine exports:
// the stable dump paths of the engine's stats tree.
const (
	MetricProcessingSeconds   = "processing_seconds"
	MetricSwitchingSeconds    = "switching_seconds"
	MetricInefficiencySeconds = "inefficiency_seconds"
	MetricSliceCount          = "slice_count"
	MetricRounds              = "rounds"
	MetricSlicePasses         = "slice_passes"
	MetricEdgeBWShare         = "edge_bw_share"
)

// Config describes a PolyGraph-style accelerator.
type Config struct {
	// OnChipBytes is the scratchpad capacity (32 MiB in the paper).
	OnChipBytes int64
	// BytesPerVertexOnChip is the per-vertex on-chip footprint that
	// determines slice count: slices = ceil(V·bytes / capacity). The
	// paper's Table III slice counts correspond to 4 B per vertex.
	BytesPerVertexOnChip int
	// MemBandwidth is the unified off-chip bandwidth in bytes/second
	// (332.8 GB/s in the iso-bandwidth comparison).
	MemBandwidth float64
	// EdgeBytes and MsgBytes size streamed edges and buffered
	// inter-slice messages.
	EdgeBytes int
	MsgBytes  int
	// SliceVertexBytes is the per-vertex traffic of writing out one
	// slice and reading in the next.
	SliceVertexBytes int
	// ReplicaBytes is the per-replicated-vertex read+update traffic on
	// a slice switch.
	ReplicaBytes int
	// PassLatencySeconds is the fixed pipeline-fill/message-fetch
	// latency each slice pass pays before streaming can proceed; it is
	// what makes sparse high-diameter traversals (road networks) slow on
	// the baseline too, not just bandwidth-bound (0 = default 0.25 us).
	PassLatencySeconds float64
	// ReorderWindow is the number of buffered inter-slice messages the
	// Tw work-reordering scheduler can batch and coalesce at a time —
	// PolyGraph coalesces within its on-chip task window, not across the
	// whole off-chip buffer (0 = default 64).
	ReorderWindow int
	// MaxRounds bounds the outer loop (0 = default).
	MaxRounds int
	// ForceSlices overrides the computed slice count when positive
	// (used by the Fig. 2 sweep).
	ForceSlices int
}

// DefaultConfig returns the paper's PolyGraph configuration.
func DefaultConfig() Config {
	return Config{
		OnChipBytes:          32 << 20,
		BytesPerVertexOnChip: 4,
		MemBandwidth:         332.8e9,
		EdgeBytes:            8,
		MsgBytes:             16,
		SliceVertexBytes:     4,
		ReplicaBytes:         8,
		PassLatencySeconds:   0.25e-6,
	}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.OnChipBytes <= 0:
		return fmt.Errorf("polygraph: OnChipBytes = %d", c.OnChipBytes)
	case c.BytesPerVertexOnChip <= 0:
		return fmt.Errorf("polygraph: BytesPerVertexOnChip = %d", c.BytesPerVertexOnChip)
	case c.MemBandwidth <= 0:
		return fmt.Errorf("polygraph: MemBandwidth = %v", c.MemBandwidth)
	case c.EdgeBytes <= 0 || c.MsgBytes <= 0 || c.SliceVertexBytes < 0 || c.ReplicaBytes < 0:
		return errors.New("polygraph: byte sizes must be positive")
	case c.PassLatencySeconds < 0:
		return errors.New("polygraph: PassLatencySeconds must be non-negative")
	}
	return nil
}

// SliceCount returns the number of temporal slices the graph needs.
func (c Config) SliceCount(numVertices int) int {
	if c.ForceSlices > 0 {
		return c.ForceSlices
	}
	bytes := int64(numVertices) * int64(c.BytesPerVertexOnChip)
	s := int((bytes + c.OnChipBytes - 1) / c.OnChipBytes)
	if s < 1 {
		s = 1
	}
	return s
}

// Result reports one PolyGraph execution with the Fig. 2/6 time breakdown.
type Result struct {
	Props []program.Prop
	Stats program.RunStats
	// ProcessingSeconds is first-pass slice work; InefficiencySeconds is
	// repeat-pass work; SwitchingSeconds is slice I/O.
	ProcessingSeconds   float64
	SwitchingSeconds    float64
	InefficiencySeconds float64
	// SliceCount and Rounds describe the temporal schedule.
	SliceCount int
	Rounds     int
	// SlicePasses is the total number of slice activations (≥ SliceCount
	// on multi-round executions).
	SlicePasses int
	// EdgeBandwidthShare is the fraction of total memory traffic spent
	// streaming edges (the paper reports 25–35% for large graphs).
	EdgeBandwidthShare float64
	// Partial marks a salvaged result: the run stopped early (cancelled,
	// deadline, or round-budget exhaustion) and the stats cover only the
	// work completed before the stop. StopReason classifies the cause.
	Partial    bool
	StopReason sim.StopReason

	// Dump is the full hierarchical statistics dump for the run.
	Dump *stats.Dump
}

type machine struct {
	cfg     Config
	ctx     context.Context
	g       *graph.CSR
	p       program.Program
	bsp     program.BSPProgram
	sched   program.ScheduledProgram
	prep    program.PropPreparer
	selfUpd program.SelfUpdating
	slices  int
	sliceOf []int32
	// per-slice vertex counts and replicated-vertex counts.
	sliceVerts []int64
	boundary   []int64

	props []program.Prop

	// traffic accounting (bytes)
	edgeBytes   uint64
	msgIOBytes  uint64
	switchBytes uint64

	stats     program.RunStats
	procSec   float64
	switchSec float64
	ineffSec  float64
	passes    []int
	totalPass int

	// windowFill profiles how full each Tw reorder window runs; root backs
	// the stats tree and result the dump-time formulas set by collect.
	windowFill stats.Distribution
	root       *stats.Group
	result     *Result
}

// Run executes p on g under the PolyGraph model. ctx cancellation is
// polled at every round, slice activation, and epoch, so the model stops
// within one slice pass. On a cooperative stop (cancellation, deadline, or
// round-budget exhaustion) Run salvages the statistics accumulated so far
// and returns BOTH a Result marked Partial (with its StopReason) and the
// error.
func Run(ctx context.Context, cfg Config, g *graph.CSR, p program.Program) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	m := &machine{cfg: cfg, ctx: ctx, g: g, p: p}
	if bp, ok := p.(program.BSPProgram); ok && p.Mode() == program.BSP {
		m.bsp = bp
	} else if p.Mode() == program.BSP {
		return nil, fmt.Errorf("polygraph: %s declares BSP mode but is not a BSPProgram", p.Name())
	}
	m.sched, _ = p.(program.ScheduledProgram)
	m.prep, _ = p.(program.PropPreparer)
	m.selfUpd, _ = p.(program.SelfUpdating)
	m.setup()
	var err error
	if m.bsp != nil {
		err = m.runBSP()
	} else {
		err = m.runAsync()
	}
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
	n := m.g.NumVertices()
	m.slices = m.cfg.SliceCount(n)
	part := graph.PartitionRange(n, m.slices)
	m.sliceOf = make([]int32, n)
	m.sliceVerts = make([]int64, m.slices)
	for v, s := range part.Owner {
		m.sliceOf[v] = int32(s)
		m.sliceVerts[s]++
	}
	// Replicated vertices: endpoints of inter-slice edges.
	isBoundary := make([]bool, n)
	for v := 0; v < n; v++ {
		sv := m.sliceOf[v]
		for _, d := range m.g.Neighbors(graph.VertexID(v)) {
			if m.sliceOf[d] != sv {
				isBoundary[v] = true
				isBoundary[d] = true
			}
		}
	}
	m.boundary = make([]int64, m.slices)
	for v, b := range isBoundary {
		if b {
			m.boundary[m.sliceOf[v]]++
		}
	}
	m.props = make([]program.Prop, n)
	for v := range m.props {
		m.props[v] = m.p.InitProp(graph.VertexID(v), m.g)
	}
	m.passes = make([]int, m.slices)
	m.buildStatsTree()
}

// buildStatsTree registers the machine's statistics: root-level formulas
// carry the headline metric names (evaluated against m.result, which
// collect sets before dumping), traffic counters adopt the existing plain
// fields, and per-slice schedule detail nests under slice<i>.
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
	root.Formula(res(func(r *Result) float64 { return r.ProcessingSeconds }),
		MetricProcessingSeconds, stats.Seconds, "first-pass slice work (Fig. 2)")
	root.Formula(res(func(r *Result) float64 { return r.SwitchingSeconds }),
		MetricSwitchingSeconds, stats.Seconds, "slice vertex I/O and replicated-vertex synchronization (Fig. 2)")
	root.Formula(res(func(r *Result) float64 { return r.InefficiencySeconds }),
		MetricInefficiencySeconds, stats.Seconds, "repeat-pass work caused by inter-slice dependencies (Fig. 2)")
	root.Formula(res(func(r *Result) float64 { return float64(r.SliceCount) }),
		MetricSliceCount, stats.Count, "temporal slices the graph needs on-chip")
	root.Formula(res(func(r *Result) float64 { return float64(r.Rounds) }),
		MetricRounds, stats.Count, "outer rounds over the slice schedule")
	root.Formula(res(func(r *Result) float64 { return float64(r.SlicePasses) }),
		MetricSlicePasses, stats.Count, "total slice activations (≥ slice_count on multi-round runs)")
	root.Formula(res(func(r *Result) float64 { return r.EdgeBandwidthShare }),
		MetricEdgeBWShare, stats.Ratio, "fraction of memory traffic spent streaming edges")
	root.Uint64(&m.edgeBytes, "edge_bytes", stats.Bytes, "bytes spent streaming edges")
	root.Uint64(&m.msgIOBytes, "msg_io_bytes", stats.Bytes, "bytes spent buffering and re-reading inter-slice messages")
	root.Uint64(&m.switchBytes, "switch_bytes", stats.Bytes, "bytes spent on slice vertex I/O and replica synchronization")
	root.Distribution(&m.windowFill, "reorder_window_fill", stats.Entries, "messages per Tw reorder window")
	for s := 0; s < m.slices; s++ {
		sg := root.Group(fmt.Sprintf("slice%d", s))
		sg.Int(&m.passes[s], "passes", stats.Count, "times this slice was activated")
		sg.Int64(&m.sliceVerts[s], "vertices", stats.Count, "vertices resident in this slice")
		sg.Int64(&m.boundary[s], "replicated_vertices", stats.Count, "boundary vertices replicated across slices")
	}
}

// chargeSwitch accounts a slice switch (skipped for non-sliced execution).
func (m *machine) chargeSwitch(s int) {
	if m.slices == 1 {
		return
	}
	bytes := 2*m.sliceVerts[s]*int64(m.cfg.SliceVertexBytes) + m.boundary[s]*int64(m.cfg.ReplicaBytes)
	m.switchBytes += uint64(bytes)
	m.switchSec += float64(bytes) / m.cfg.MemBandwidth
}

// chargePass accounts one slice pass. Edge streaming is processing on the
// first pass and inefficiency on repeats (the paper's definition: "time
// spent processing slices more than once"). Inter-slice replicated-vertex
// message I/O counts as switching, per Section II-C's definition of the
// switching component. Every pass also pays a fixed pipeline-fill latency.
func (m *machine) chargePass(s int, edges int64, msgIO int64) {
	m.edgeBytes += uint64(edges * int64(m.cfg.EdgeBytes))
	m.msgIOBytes += uint64(msgIO)
	m.switchSec += float64(msgIO) / m.cfg.MemBandwidth
	sec := float64(edges*int64(m.cfg.EdgeBytes))/m.cfg.MemBandwidth + m.cfg.PassLatencySeconds
	m.passes[s]++
	m.totalPass++
	if m.passes[s] == 1 {
		m.procSec += sec
	} else {
		m.ineffSec += sec
	}
}

func (m *machine) maxRounds() int {
	if m.cfg.MaxRounds > 0 {
		return m.cfg.MaxRounds
	}
	return 1 << 20
}

// runAsync is the sliced asynchronous variant: slices are processed in
// turn until globally quiescent. Within a slice, execution drains a
// deduplicated on-chip worklist (updates arriving while a vertex waits in
// the queue coalesce — the on-chip coalescing window prior accelerators
// rely on). Buffered inter-slice messages are read back and reordered in
// limited windows (PolyGraph's Tw task scheduling): duplicates within one
// window coalesce, duplicates across windows do not — the work-efficiency
// gap NOVA's memory-wide window closes.
func (m *machine) runAsync() error {
	g := m.g
	window := m.cfg.ReorderWindow
	if window <= 0 {
		window = 64
	}
	pending := make([][]program.Message, m.slices)
	for _, v := range m.p.InitActive(g) {
		// Initial activations behave like messages already reduced:
		// seed the local worklists.
		pending[m.sliceOf[v]] = append(pending[m.sliceOf[v]], program.Message{Dst: v, Delta: selfSeed})
	}
	inQueue := make([]bool, g.NumVertices())
	var work []graph.VertexID

	// propagate drains the slice-local worklist with dedup flags.
	propagate := func(s int, passEdges, msgIO *int64) {
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
				*passEdges++
				m.stats.EdgesTraversed++
				m.stats.MessagesSent++
				dst := g.Dst[e]
				if m.sliceOf[dst] == int32(s) {
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
					pending[m.sliceOf[dst]] = append(pending[m.sliceOf[dst]], program.Message{Dst: dst, Delta: delta})
					*msgIO += int64(m.cfg.MsgBytes) // buffered to DRAM
				}
			}
		}
		work = work[:0]
	}

	for round := 0; round < m.maxRounds(); round++ {
		if err := m.ctx.Err(); err != nil {
			return err
		}
		anyPending := false
		for s := 0; s < m.slices && !anyPending; s++ {
			anyPending = len(pending[s]) > 0
		}
		if !anyPending {
			return nil
		}
		for s := 0; s < m.slices; s++ {
			// Cancellation is polled per slice activation, bounding the
			// stop latency to one slice pass.
			if err := m.ctx.Err(); err != nil {
				return err
			}
			// Temporal multiplexing rotates the scratchpad through the
			// slices: every visit pays the full slice-I/O and
			// replicated-vertex synchronization, however little work
			// the slice has this round.
			m.chargeSwitch(s)
			if len(pending[s]) == 0 {
				continue
			}
			var passEdges int64
			var msgIO int64
			batch := pending[s]
			// Recycle the batch backing: messages for slice s are never
			// produced while slice s itself is processing (the local case
			// reduces in place), so the buffer is free for the next round.
			pending[s] = batch[:0]
			// Read real buffered messages back from DRAM (worklist
			// seeds from InitActive are not memory traffic).
			for _, msg := range batch {
				if msg.Delta != selfSeed {
					msgIO += int64(m.cfg.MsgBytes)
				}
			}
			for base := 0; base < len(batch); base += window {
				end := base + window
				if end > len(batch) {
					end = len(batch)
				}
				chunk := batch[base:end]
				m.windowFill.Sample(float64(len(chunk)))
				// Tw reordering: sort the window by destination so
				// same-vertex updates merge before processing.
				sortByDst(chunk)
				for i := 0; i < len(chunk); {
					j := i
					v := chunk[i].Dst
					changed := false
					for ; j < len(chunk) && chunk[j].Dst == v; j++ {
						if j > i {
							m.stats.MessagesCoalesced++
						}
						if chunk[j].Delta == selfSeed {
							changed = true
							continue
						}
						next := m.p.Reduce(v, m.props[v], chunk[j].Delta)
						if next != m.props[v] {
							m.props[v] = next
							changed = true
						}
					}
					if changed && !inQueue[v] {
						inQueue[v] = true
						work = append(work, v)
					}
					i = j
				}
				propagate(s, &passEdges, &msgIO)
			}
			m.chargePass(s, passEdges, msgIO)
		}
	}
	return fmt.Errorf("%w: polygraph round budget exhausted (non-monotone program?)", sim.ErrMaxEvents)
}

// selfSeed marks worklist seeds that are activations, not real messages.
const selfSeed = program.Prop(1<<64 - 2)

// sortByDst stably sorts one reorder window by destination vertex. Windows
// are small (ReorderWindow entries, default 64), where insertion sort beats
// sort.SliceStable — and, unlike the reflection-based swapper, it allocates
// nothing, which matters because this runs once per window on the model's
// hottest path.
func sortByDst(msgs []program.Message) {
	for i := 1; i < len(msgs); i++ {
		m := msgs[i]
		j := i - 1
		for j >= 0 && msgs[j].Dst > m.Dst {
			msgs[j+1] = msgs[j]
			j--
		}
		msgs[j+1] = m
	}
}

// runBSP executes bulk-synchronous programs: each epoch sweeps the slices
// once, propagating the epoch's active vertices and accumulating incoming
// contributions; Apply folds them in at the barrier.
func (m *machine) runBSP() error {
	g := m.g
	n := g.NumVertices()
	accum := make([]program.Prop, n)
	touched := make([]bool, n)
	var touchedList []graph.VertexID

	inSet := make([]bool, n)
	var active []graph.VertexID
	add := func(v graph.VertexID) {
		if !inSet[v] {
			inSet[v] = true
			active = append(active, v)
		}
	}
	for _, v := range m.p.InitActive(g) {
		add(v)
	}
	if m.sched != nil {
		for _, v := range m.sched.EpochActive(0, g) {
			add(v)
		}
	}
	// Per-slice active lists for the sweep.
	bySlice := make([][]graph.VertexID, m.slices)

	for epoch := 0; len(active) > 0; epoch++ {
		if err := m.ctx.Err(); err != nil {
			return err
		}
		if mx := m.bsp.MaxEpochs(); mx > 0 && epoch >= mx {
			break
		}
		m.stats.Epochs++
		for _, v := range active {
			inSet[v] = false
			bySlice[m.sliceOf[v]] = append(bySlice[m.sliceOf[v]], v)
		}
		active = active[:0]
		for s := 0; s < m.slices; s++ {
			verts := bySlice[s]
			if len(verts) == 0 {
				continue
			}
			if err := m.ctx.Err(); err != nil {
				return err
			}
			m.chargeSwitch(s)
			var passEdges, msgIO int64
			for _, v := range verts {
				prop := m.props[v]
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
					if !touched[dst] {
						touched[dst] = true
						accum[dst] = m.bsp.AccumInit()
						touchedList = append(touchedList, dst)
					} else {
						m.stats.MessagesCoalesced++
					}
					accum[dst] = m.p.Reduce(dst, accum[dst], delta)
					if m.sliceOf[dst] != int32(s) {
						msgIO += 2 * int64(m.cfg.MsgBytes)
					}
				}
			}
			m.chargePass(s, passEdges, msgIO)
			bySlice[s] = bySlice[s][:0]
		}
		// Barrier: apply sweep (read+write each touched vertex record).
		applyBytes := int64(len(touchedList)) * 2 * int64(m.cfg.SliceVertexBytes)
		m.switchBytes += uint64(applyBytes)
		m.switchSec += float64(applyBytes) / m.cfg.MemBandwidth
		for _, v := range touchedList {
			newProp, act := m.bsp.Apply(v, m.props[v], accum[v], g)
			m.props[v] = newProp
			touched[v] = false
			if act {
				add(v)
			}
		}
		touchedList = touchedList[:0]
		if m.sched != nil {
			for _, v := range m.sched.EpochActive(epoch+1, g) {
				add(v)
			}
		}
	}
	return nil
}

func (m *machine) collect() *Result {
	total := m.procSec + m.switchSec + m.ineffSec
	m.stats.SimSeconds = total
	r := &Result{
		Props:               m.props,
		Stats:               m.stats,
		ProcessingSeconds:   m.procSec,
		SwitchingSeconds:    m.switchSec,
		InefficiencySeconds: m.ineffSec,
		SliceCount:          m.slices,
		SlicePasses:         m.totalPass,
	}
	if m.slices > 0 {
		r.Rounds = m.totalPass / m.slices
		if m.totalPass%m.slices != 0 {
			r.Rounds++
		}
	}
	if sum := float64(m.edgeBytes + m.msgIOBytes + m.switchBytes); sum > 0 {
		r.EdgeBandwidthShare = float64(m.edgeBytes) / sum
	}
	// Set before dumping: the root formulas read m.result.
	m.result = r
	r.Dump = m.root.Dump(map[string]string{
		"engine":  "polygraph",
		"program": m.p.Name(),
		"graph":   m.g.Name,
	})
	return r
}
