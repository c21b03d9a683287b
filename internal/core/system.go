package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"nova/graph"
	"nova/internal/mem"
	"nova/internal/network"
	"nova/internal/sim"
	"nova/internal/stats"
	"nova/internal/trace"
	"nova/program"
)

// System is one assembled NOVA machine bound to a graph and a spatial
// partition. A System runs exactly one program; build a fresh one per run
// (construction is cheap relative to simulation).
//
// The machine is sharded by GPN: each GPN's PEs, VMUs, and memory
// channels run on their own sim.Engine, coordinated by a sim.Cluster
// under conservative time windows whose lookahead is the fabric's
// cross-GPN latency. cfg.Shards picks how many goroutines execute the
// shards; the decomposition itself is fixed, so results are
// bit-identical at every shard count, and a 1-GPN system degenerates to
// the classic single-event-loop sequential simulator.
type System struct {
	cfg Config
	// engines[gpn] is the event loop of GPN gpn's shard.
	engines []*sim.Engine
	cluster *sim.Cluster
	// workers is the effective worker-goroutine count (Shards clamped).
	workers int
	g       *graph.CSR
	part    *graph.Partition
	fabric  network.Fabric
	pes     []*PE
	shards  []shardState
	// slot maps a global vertex to its local slot on its owner PE.
	slot []int32
	// edgeChans[gpn] are the DDR4 channels shared by that GPN's PEs.
	edgeChans [][]*mem.Channel
	// ssds[gpn] is the GPN's out-of-core paging device (nil slice unless
	// cfg.OutOfCore). One device per GPN keeps the model shard-local.
	ssds []*mem.SSD

	// Functional state. The big per-vertex slices are shared across
	// shards but every index is written only by its owner PE's shard —
	// disjoint-index access, no locks.
	props      []program.Prop
	accum      []program.Prop
	touched    []bool
	activeFlag []bool

	prog    program.Program
	bsp     program.BSPProgram
	sched   program.ScheduledProgram
	prep    program.PropPreparer
	selfUpd program.SelfUpdating

	// Work totals, summed from the per-PE counters in collectResult (the
	// stats tree registers these fields, so they must be filled before
	// the dump).
	edgesTraversed int64
	messagesSent   int64
	coalesced      int64
	drains         int64
	epochs         int
	ran            bool

	// stats is the machine's statistics tree, built at assembly time;
	// result backs the root-level dump-time formulas once Run completes.
	stats  *stats.Group
	result *Result

	// tracer is optional; a nil tracer records nothing. Tracing requires
	// a single worker (the trace buffer is not sharded).
	tracer *trace.Tracer
}

// shardState is the per-GPN slice of the System's mutable coordination
// state. Every field is written only by the owning shard's goroutine
// during a window, or by the coordinator between windows.
type shardState struct {
	s   *System
	gpn int
	eng *sim.Engine
	pes []*PE

	// activeCount tracks this shard's active vertices (async engines).
	activeCount int64
	// touchedList collects vertices touched this epoch (BSP engines),
	// in first-touch order within the shard.
	touchedList []graph.VertexID
	// nextActive collects the next epoch's activations for this shard's
	// vertices (BSP; filled by the coordinator at the barrier).
	nextActive []graph.VertexID
	// spentDeliver parks cross-shard deliverTasks fired on this shard;
	// the window barrier returns them to their owners' pools.
	spentDeliver []*deliverTask

	// Pre-allocated kickoff/barrier events: inject activates a batch of
	// vertices at the start of a run or epoch, noopEv advances simulated
	// time to a barrier boundary. Reusing one event per purpose keeps
	// the BSP epoch loop allocation-free.
	inject   injectTask
	injectEv *sim.Event
	noopEv   *sim.Event
}

// injectTask activates its vertex batch and pumps the shard's MGUs — the
// run and epoch kickoff handler. Batches are pre-split by owner shard, so
// every activation is shard-local.
type injectTask struct {
	sh    *shardState
	verts []graph.VertexID
}

func (t *injectTask) Fire() {
	for _, v := range t.verts {
		t.sh.s.activate(v)
	}
	t.verts = t.verts[:0]
	for _, pe := range t.sh.pes {
		pe.pumpMGU()
	}
}

// noopFire is a no-op Handler for pure time-advance events.
type noopFire struct{}

func (noopFire) Fire() {}

// SetTracer attaches an activity tracer. Call before Run. Tracing is only
// supported with Shards ≤ 1.
func (s *System) SetTracer(t *trace.Tracer) { s.tracer = t }

// ErrDeadlock reports that the simulation stopped making progress while
// active vertices remained — a violation of the design's deadlock-freedom
// property, so always a model bug.
var ErrDeadlock = errors.New("core: no progress with active vertices remaining")

// NewSystem assembles a NOVA machine for the given graph. part must have
// exactly cfg.TotalPEs() parts; pass nil to use random vertex assignment
// (the paper's default).
func NewSystem(cfg Config, g *graph.CSR, part *graph.Partition) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if g.NumVertices() == 0 {
		return nil, errors.New("core: graph has no vertices")
	}
	if part == nil {
		part = graph.PartitionRandom(g.NumVertices(), cfg.TotalPEs(), 1)
	}
	if part.Parts != cfg.TotalPEs() {
		return nil, fmt.Errorf("core: partition has %d parts, system has %d PEs", part.Parts, cfg.TotalPEs())
	}
	if part.NumVertices() != g.NumVertices() {
		return nil, fmt.Errorf("core: partition covers %d vertices, graph has %d", part.NumVertices(), g.NumVertices())
	}
	engines := make([]*sim.Engine, cfg.GPNs)
	for i := range engines {
		engines[i] = sim.NewEngine()
	}
	s := &System{
		cfg:        cfg,
		engines:    engines,
		g:          g,
		part:       part,
		shards:     make([]shardState, cfg.GPNs),
		slot:       make([]int32, g.NumVertices()),
		props:      make([]program.Prop, g.NumVertices()),
		activeFlag: make([]bool, g.NumVertices()),
	}
	for gpn := range s.shards {
		sh := &s.shards[gpn]
		sh.s = s
		sh.gpn = gpn
		sh.eng = engines[gpn]
		sh.inject.sh = sh
		sh.injectEv = sim.NewEvent(&sh.inject)
		sh.noopEv = sim.NewEvent(noopFire{})
	}
	switch cfg.Fabric {
	case FabricIdeal:
		s.fabric = network.NewIdeal(engines, cfg.PEsPerGPN, cfg.P2P.Latency)
	default:
		s.fabric = network.NewFabric(engines, cfg.PEsPerGPN, network.FabricConfig{
			P2P:      cfg.P2P,
			Crossbar: cfg.Crossbar,
			Link:     cfg.Link,
			Topology: cfg.Topology,
			Coalesce: network.CoalesceConfig{Window: cfg.CoalesceWindow, Capacity: cfg.CoalesceCapacity},
			Vertices: g.NumVertices(),
		})
	}
	s.edgeChans = make([][]*mem.Channel, cfg.GPNs)
	for gpn := range s.edgeChans {
		chans := make([]*mem.Channel, cfg.EdgeChannelsPerGPN)
		for i := range chans {
			c := cfg.EdgeChannel
			c.Name = fmt.Sprintf("ddr4-g%d-c%d", gpn, i)
			chans[i] = mem.NewChannel(engines[gpn], c)
		}
		s.edgeChans[gpn] = chans
	}
	if cfg.OutOfCore {
		s.ssds = make([]*mem.SSD, cfg.GPNs)
		for gpn := range s.ssds {
			c := cfg.SSD
			c.Name = fmt.Sprintf("ssd-g%d", gpn)
			s.ssds[gpn] = mem.NewSSD(engines[gpn], c)
		}
	}

	total := cfg.TotalPEs()
	s.pes = make([]*PE, total)
	for id := 0; id < total; id++ {
		gpn := id / cfg.PEsPerGPN
		vc := cfg.VertexChannel
		vc.Name = fmt.Sprintf("hbm2-pe%d", id)
		pe := &PE{
			sys:         s,
			sh:          &s.shards[gpn],
			eng:         engines[gpn],
			id:          id,
			gpn:         gpn,
			vchan:       mem.NewChannel(engines[gpn], vc),
			cache:       mem.NewCache(cfg.CacheBytesPerPE, cfg.BlockBytes),
			sendBuckets: make([][]program.Message, total),
		}
		if s.ssds != nil {
			pe.ssd = s.ssds[gpn]
		}
		s.pes[id] = pe
		s.shards[gpn].pes = append(s.shards[gpn].pes, pe)
	}
	// Place vertices: slot order is ascending global ID within each PE.
	for v := 0; v < g.NumVertices(); v++ {
		pe := s.pes[part.Owner[v]]
		s.slot[v] = int32(len(pe.localVerts))
		pe.localVerts = append(pe.localVerts, graph.VertexID(v))
	}
	// Build per-PE edge regions and wire VMUs + cache hooks.
	gpnEdgeBytes := make([]uint64, cfg.GPNs)
	for _, pe := range s.pes {
		pe.localRowPtr = make([]int64, len(pe.localVerts)+1)
		var m int64
		for i, v := range pe.localVerts {
			deg := g.OutDegree(v)
			pe.localRowPtr[i] = m
			m += deg
		}
		pe.localRowPtr[len(pe.localVerts)] = m
		pe.edgeDst = make([]graph.VertexID, m)
		pe.edgeWgt = make([]uint32, m)
		var c int64
		for _, v := range pe.localVerts {
			lo, hi := g.RowPtr[v], g.RowPtr[v+1]
			copy(pe.edgeDst[c:], g.Dst[lo:hi])
			copy(pe.edgeWgt[c:], g.Weight[lo:hi])
			c += hi - lo
		}
		pe.edgeBase = gpnEdgeBytes[pe.gpn]
		gpnEdgeBytes[pe.gpn] += uint64(m) * uint64(cfg.EdgeBytes)
		pe.mshr = newMSHRFile(cfg.MSHRs, pe.numBlocks())
		pe.vmu = newVMU(pe)
		vmu := pe.vmu
		pe.cache.OnEvict = vmu.onEvict
	}
	lookahead := s.fabric.Lookahead()
	if cfg.GPNs > 1 && lookahead == 0 {
		return nil, errors.New("core: fabric declares zero lookahead; cannot shard a multi-GPN system")
	}
	if lookahead == 0 {
		lookahead = 1 // single shard: the window bound is never exercised
	}
	workers := cfg.Shards
	if workers <= 0 {
		workers = 1
	}
	cluster, err := sim.NewCluster(engines, lookahead, workers)
	if err != nil {
		return nil, err
	}
	s.cluster = cluster
	s.workers = cluster.Workers()
	s.buildStatsTree()
	return s, nil
}

// Engine exposes the first shard's simulation engine (mainly for tests of
// single-GPN systems).
func (s *System) Engine() *sim.Engine { return s.engines[0] }

// now returns the machine time: the maximum across shard engines.
func (s *System) now() sim.Ticks { return s.cluster.Now() }

// executed returns total events executed across shards.
func (s *System) executed() uint64 { return s.cluster.Executed() }

func (s *System) totalActive() int64 {
	var n int64
	for i := range s.shards {
		n += s.shards[i].activeCount
	}
	return n
}

func (s *System) activate(v graph.VertexID) {
	if s.activeFlag[v] {
		return
	}
	s.activeFlag[v] = true
	pe := s.pes[s.part.Owner[v]]
	pe.sh.activeCount++
	pe.vmu.onActivate(v)
}

func (s *System) deactivate(v graph.VertexID) {
	if !s.activeFlag[v] {
		return
	}
	s.activeFlag[v] = false
	s.pes[s.part.Owner[v]].sh.activeCount--
}

func (s *System) inboxesEmpty() bool {
	for _, pe := range s.pes {
		if pe.inboxHead < len(pe.inbox) || pe.mshr.busy() {
			return false
		}
	}
	return true
}

// exchange is the cluster's barrier callback: deliver buffered cross-GPN
// fabric messages, then return spent cross-shard delivery tasks to their
// owners' pools. Runs single-threaded between windows.
func (s *System) exchange() (int, error) {
	n, err := s.fabric.Exchange()
	for i := range s.shards {
		sh := &s.shards[i]
		for j, t := range sh.spentDeliver {
			o := t.owner
			t.next = o.freeDeliver
			o.freeDeliver = t
			sh.spentDeliver[j] = nil
		}
		sh.spentDeliver = sh.spentDeliver[:0]
	}
	return n, err
}

// clusterRun advances the machine until global quiescence (all shards
// idle and no buffered cross-GPN messages) or the event budget expires.
func (s *System) clusterRun(budget uint64) error {
	return s.cluster.Run(budget, s.exchange)
}

// drainCaches flushes every PE cache so active vertices parked on-chip are
// written back and tracked — the quiescence-boundary drain that preserves
// the "every active vertex is in buffer ∨ cache ∨ tracker" invariant.
func (s *System) drainCaches() {
	for _, pe := range s.pes {
		pe.cache.FlushAll()
	}
	for _, pe := range s.pes {
		pe.vmu.maybePrefetch()
		pe.pumpMGU()
	}
}

// runToQuiescence runs the event loop, draining cached activations
// whenever the machine stalls with work remaining.
func (s *System) runToQuiescence(budget uint64) error {
	for {
		if err := s.clusterRun(budget); err != nil {
			return err
		}
		if s.totalActive() == 0 && s.inboxesEmpty() {
			return nil
		}
		before := s.executed()
		s.drains++
		s.tracer.Instant("system", "drain", -1, s.now())
		s.tracer.Counter("active-vertices", s.now(), float64(s.totalActive()))
		s.drainCaches()
		if err := s.clusterRun(budget); err != nil {
			return err
		}
		if s.executed() == before && (s.totalActive() > 0 || !s.inboxesEmpty()) {
			return ErrDeadlock
		}
		if s.totalActive() == 0 && s.inboxesEmpty() {
			return nil
		}
	}
}

// Run executes the program to completion and returns the result. A System
// can run only once.
//
// ctx cancellation is observed cooperatively: each shard polls an
// interrupt every cfg.PollEvents executed events and the cluster checks it
// at every window barrier, so the run stops within one poll interval. A
// wall-clock watchdog (cfg.StallTimeout) additionally trips the interrupt
// when no progress happens at all. On any cooperative stop — cancellation,
// deadline, event-budget exhaustion, or watchdog trip — Run salvages the
// statistics accumulated so far and returns BOTH a Result marked Partial
// (with its StopReason) and the error.
func (s *System) Run(ctx context.Context, p program.Program) (*Result, error) {
	if s.ran {
		return nil, errors.New("core: System.Run called twice; build a fresh System per run")
	}
	s.ran = true
	if s.tracer != nil && s.workers > 1 {
		return nil, errors.New("core: tracing requires Shards = 1 (the trace buffer is not sharded)")
	}
	defer s.cluster.Close()

	intr := s.cfg.Observer
	if intr == nil {
		intr = sim.NewInterrupt()
	}
	s.cluster.SetInterrupt(intr, s.cfg.PollEvents)
	if ctx == nil {
		ctx = context.Background()
	}
	stopWatch := sim.WatchContext(ctx, intr)
	defer stopWatch()
	stall := s.cfg.StallTimeout
	if stall == 0 {
		stall = DefaultStallTimeout
	}
	stopDog := sim.StartWatchdog(intr, stall)
	defer stopDog()

	s.prog = p
	if bp, ok := p.(program.BSPProgram); ok && p.Mode() == program.BSP {
		s.bsp = bp
	} else if p.Mode() == program.BSP {
		return nil, fmt.Errorf("core: %s declares BSP mode but is not a BSPProgram", p.Name())
	}
	s.sched, _ = p.(program.ScheduledProgram)
	s.prep, _ = p.(program.PropPreparer)
	s.selfUpd, _ = p.(program.SelfUpdating)
	if hf, ok := s.fabric.(*network.Hierarchical); ok {
		if m, ok := p.(program.DeltaMerger); ok {
			hf.SetMerge(m.MergeDelta)
		}
	}

	for v := range s.props {
		s.props[v] = p.InitProp(graph.VertexID(v), s.g)
	}
	budget := s.cfg.MaxEvents
	if budget == 0 {
		budget = 4_000_000_000
	}

	var err error
	if s.bsp != nil {
		err = s.runBSP(budget)
	} else {
		err = s.runAsync(budget)
	}
	reason := sim.ReasonFor(err)
	if err != nil && reason == "" {
		// Non-cooperative failure (deadlock, model bug): nothing to salvage.
		return nil, err
	}
	if errors.Is(err, sim.ErrStalled) {
		err = fmt.Errorf("%w\n%s", err, s.stallSnapshot())
	}
	s.fabric.Finalize()
	// Collect first: the dump's root formulas read s.result.
	s.result = s.collectResult()
	s.result.Partial = reason != ""
	s.result.StopReason = reason
	s.result.Dump = s.stats.Dump(map[string]string{
		"engine":  "nova",
		"program": p.Name(),
		"graph":   s.g.Name,
		"shards":  strconv.Itoa(s.workers),
	})
	return s.result, err
}

// stallSnapshot renders the watchdog's diagnostic: machine time, executed
// events, remaining work, and each shard's position. Built single-threaded
// after the cluster stops, so it reads shard state race-free.
func (s *System) stallSnapshot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stall snapshot: tick=%d executed=%d active=%d drains=%d epochs=%d",
		s.now(), s.executed(), s.totalActive(), s.drains, s.epochs)
	for i, e := range s.engines {
		b.WriteString("\n  ")
		fmt.Fprintf(&b, "shard %d: now=%d executed=%d pending=%d", i, e.Now(), e.Executed(), e.Pending())
		if head, ok := e.NextWhen(); ok {
			fmt.Fprintf(&b, " head=%d", head)
		} else {
			b.WriteString(" head=<empty>")
		}
	}
	return b.String()
}

// scheduleInjects splits a vertex batch by owner shard and schedules each
// shard's inject kickoff at zero delay.
func (s *System) scheduleInjects(verts []graph.VertexID) {
	for _, v := range verts {
		sh := s.pes[s.part.Owner[v]].sh
		sh.inject.verts = append(sh.inject.verts, v)
	}
	for i := range s.shards {
		sh := &s.shards[i]
		if len(sh.inject.verts) > 0 {
			sh.eng.ScheduleEvent(sh.injectEv, 0)
		}
	}
}

func (s *System) runAsync(budget uint64) error {
	s.scheduleInjects(s.prog.InitActive(s.g))
	return s.runToQuiescence(budget)
}

func (s *System) runBSP(budget uint64) error {
	s.accum = make([]program.Prop, s.g.NumVertices())
	s.touched = make([]bool, s.g.NumVertices())

	inSet := make([]bool, s.g.NumVertices())
	totalNext := 0
	add := func(v graph.VertexID) {
		if !inSet[v] {
			inSet[v] = true
			sh := s.pes[s.part.Owner[v]].sh
			sh.nextActive = append(sh.nextActive, v)
			totalNext++
		}
	}
	for _, v := range s.prog.InitActive(s.g) {
		add(v)
	}
	if s.sched != nil {
		for _, v := range s.sched.EpochActive(0, s.g) {
			add(v)
		}
	}

	for epoch := 0; totalNext > 0; epoch++ {
		if m := s.bsp.MaxEpochs(); m > 0 && epoch >= m {
			break
		}
		s.epochs++
		// Inject the epoch's active set through the VMU and run the
		// propagate→reduce pipeline to quiescence. The sets are already
		// split by shard.
		for i := range s.shards {
			sh := &s.shards[i]
			if len(sh.nextActive) == 0 {
				continue
			}
			sh.inject.verts = append(sh.inject.verts[:0], sh.nextActive...)
			for _, v := range sh.nextActive {
				inSet[v] = false
			}
			sh.nextActive = sh.nextActive[:0]
			sh.eng.ScheduleEvent(sh.injectEv, 0)
		}
		totalNext = 0
		if err := s.runToQuiescence(budget); err != nil {
			return err
		}
		touchedTotal := 0
		for i := range s.shards {
			touchedTotal += len(s.shards[i].touchedList)
		}
		s.tracer.Instant("bsp", "barrier", -1, s.now())
		s.tracer.Counter("touched-vertices", s.now(), float64(touchedTotal))
		// Barrier: the apply sweep reads and rewrites every touched
		// vertex record (bulk, sequential per PE).
		touchedPerPE := make([]int64, len(s.pes))
		for i := range s.shards {
			for _, v := range s.shards[i].touchedList {
				touchedPerPE[s.part.Owner[v]]++
			}
		}
		barrierEnd := s.now()
		for i, pe := range s.pes {
			bytes := touchedPerPE[i] * int64(s.cfg.VertexBytes)
			if bytes == 0 {
				continue
			}
			t := pe.vchan.BulkTransfer(bytes, mem.UsefulRead)
			if t2 := pe.vchan.BulkTransfer(bytes, mem.WriteAccess); t2 > t {
				t = t2
			}
			if t > barrierEnd {
				barrierEnd = t
			}
		}
		// Apply in shard order, first-touch order within each shard —
		// the fixed merge order that keeps the sweep deterministic.
		for i := range s.shards {
			sh := &s.shards[i]
			for _, v := range sh.touchedList {
				newProp, activateNext := s.bsp.Apply(v, s.props[v], s.accum[v], s.g)
				s.props[v] = newProp
				s.touched[v] = false
				if activateNext {
					add(v)
				}
			}
			sh.touchedList = sh.touchedList[:0]
		}
		if s.sched != nil {
			for _, v := range s.sched.EpochActive(epoch+1, s.g) {
				add(v)
			}
		}
		// Advance every shard's simulated time to the end of the apply
		// sweep, then to the common barrier boundary.
		for i := range s.shards {
			s.shards[i].eng.ScheduleEvent(s.shards[i].noopEv, 0)
		}
		if err := s.clusterRun(budget); err != nil {
			return err
		}
		scheduled := false
		for i := range s.shards {
			sh := &s.shards[i]
			if barrierEnd > sh.eng.Now() {
				sh.eng.ScheduleEventAt(sh.noopEv, barrierEnd)
				scheduled = true
			}
		}
		if scheduled {
			if err := s.clusterRun(budget); err != nil {
				return err
			}
		}
	}
	return nil
}
