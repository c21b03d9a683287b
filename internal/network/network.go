// Package network models the two interconnect levels of NOVA's system
// architecture (Section IV-C): the 8×8 point-to-point electrical network
// between PEs inside a GPN, and the crossbar switch between GPNs.
//
// The paper's balance argument is quantitative: per-GPN message traffic is
// bounded by edge-memory bandwidth, and the fabric must absorb it without
// becoming the bottleneck. These models therefore charge every message's
// bytes against per-link (or per-port) bandwidth and add latency per
// traversal, which is exactly the accounting the paper's Figure 9c
// experiment needs — and the per-port utilization stats say *where* the
// fabric runs out of bandwidth.
//
// The fabric is also the cross-shard boundary of the sharded simulator:
// each GPN runs on its own engine, intra-GPN traffic stays on the sender's
// engine, and inter-GPN traffic is buffered in a per-source-GPN outbox
// until the cluster's window barrier calls Exchange. Lookahead declares
// the minimum cross-engine latency that makes the windows sound: every
// inter-GPN message pays the crossbar's switch latency. All per-GPN
// counters are written only by their owning shard (or by Exchange, which
// runs single-threaded between windows); a message's crossbar out-port
// belongs to the sending GPN, and its in-port is only reserved at Exchange
// or on a shared engine, so the hot path needs no locks. Finalize folds
// the per-GPN accumulators into machine-wide totals at dump time.
package network

import (
	"fmt"

	"nova/internal/sim"
	"nova/internal/stats"
)

// Fabric delivers messages between PEs, identified by global PE index.
type Fabric interface {
	// Send models a transfer of bytes from src to dst and schedules
	// deliver at arrival time. deliver is a sim.Handler so senders can
	// reuse pre-allocated delivery objects (no per-message allocation).
	// When src and dst live on different engines the delivery is
	// buffered until the next Exchange. Send must be called from the
	// goroutine running src's engine.
	Send(src, dst int, bytes int, deliver sim.Handler)
	// Lookahead is the minimum latency of any cross-engine message, in
	// ticks — the conservative window bound. Zero means the fabric
	// cannot span engines.
	Lookahead() sim.Ticks
	// Exchange schedules every buffered cross-engine message on its
	// destination engine, iterating source GPNs in ascending order (the
	// shard-merge determinism rule). It must run single-threaded with
	// all engines stopped at a window barrier. It returns the number of
	// messages delivered, and errors if a message would arrive in a
	// destination's past — a lookahead violation, never reordered
	// silently.
	Exchange() (int, error)
	// Stats returns accumulated traffic counters.
	Stats() Stats
	// Finalize folds per-GPN accumulators into the dump-time totals.
	// Call once after the simulation, before dumping stats.
	Finalize()
	// RegisterStats registers the fabric's counters and derived
	// utilizations under g.
	RegisterStats(g *stats.Group)
}

// Stats counts fabric traffic. The conservation invariant is
// Messages + Coalesced == Send calls: every batch offered to the fabric
// either traverses it as its own message or is absorbed into one that
// does.
type Stats struct {
	Messages   uint64
	Bytes      uint64
	LocalBytes uint64 // bytes that stayed within one GPN
	InterBytes uint64 // bytes that crossed the inter-GPN fabric
	// InterMessages counts messages that traversed the inter-GPN fabric
	// (after coalescing).
	InterMessages uint64
	// Coalesced counts message batches absorbed into a buffered batch
	// still waiting for link bandwidth, instead of traversing the fabric
	// as their own message.
	Coalesced uint64
	// MergedUpdates counts same-destination-vertex updates folded into an
	// already-buffered update by the program's delta-merge function.
	MergedUpdates uint64
	// BytesSaved is payload the fabric never carried thanks to merging.
	BytesSaved uint64
}

func (s *Stats) add(o Stats) {
	s.Messages += o.Messages
	s.Bytes += o.Bytes
	s.LocalBytes += o.LocalBytes
	s.InterBytes += o.InterBytes
	s.InterMessages += o.InterMessages
	s.Coalesced += o.Coalesced
	s.MergedUpdates += o.MergedUpdates
	s.BytesSaved += o.BytesSaved
}

// link tracks occupancy in fractional cycles so sub-cycle transfers (an
// 8-byte message on a 30 B/cycle port) are charged their true bandwidth
// cost rather than a whole cycle.
type link struct {
	nextFree float64
}

// reserve books a transfer on the link and returns its finish time in
// fractional cycles.
func (l *link) reserve(now float64, bytes int, bytesPerCycle float64) float64 {
	start := now
	if l.nextFree > start {
		start = l.nextFree
	}
	l.nextFree = start + float64(bytes)/bytesPerCycle
	return l.nextFree
}

func (l *link) transfer(eng *sim.Engine, bytes int, bytesPerCycle float64, latency sim.Ticks, deliver sim.Handler) {
	done := l.reserve(float64(eng.Now()), bytes, bytesPerCycle)
	eng.ScheduleAt(sim.Ticks(done+0.999999)+latency, deliver)
}

// P2PConfig describes the intra-GPN point-to-point network.
type P2PConfig struct {
	// BytesPerCycle is per-link bandwidth (1.2 GB/s at 2 GHz = 0.6 B/cy).
	BytesPerCycle float64
	// Latency is the per-hop latency in cycles.
	Latency sim.Ticks
}

// DefaultP2PConfig matches Table II: 1.2 GB/s per link at a 2 GHz clock.
func DefaultP2PConfig() P2PConfig {
	return P2PConfig{BytesPerCycle: 0.6, Latency: 12}
}

// CrossbarConfig describes the inter-GPN switch.
type CrossbarConfig struct {
	// BytesPerCycle is per-port bandwidth (60 GB/s at 2 GHz = 30 B/cy).
	BytesPerCycle float64
	// Latency covers serialization and switching.
	Latency sim.Ticks
}

// DefaultCrossbarConfig matches Table II: 60 GB/s per port.
func DefaultCrossbarConfig() CrossbarConfig {
	return CrossbarConfig{BytesPerCycle: 30, Latency: 120}
}

// FabricConfig assembles a hierarchical fabric: the intra-GPN mesh, the
// inter-GPN crossbar, and the optional in-fabric coalescing stage.
type FabricConfig struct {
	P2P      P2PConfig
	Crossbar CrossbarConfig
	Coalesce CoalesceConfig
	// Vertices sizes the coalescing stage's vertex→buffer-slot index
	// (same-vertex merging is skipped when 0; append-only coalescing
	// still works).
	Vertices int
}

// outMsg is one buffered cross-engine message: the out-port finish time
// on the sender side, and the delivery to complete on the destination at
// Exchange (the in-port stage is reserved there).
type outMsg struct {
	t1      float64
	dst     int32
	bytes   int32
	deliver sim.Handler
}

// hierGPN is the per-GPN slice of a Hierarchical fabric. Every field is
// written only by the owning shard's goroutine during windows, except the
// crossbar in-port, which Exchange (single-threaded, between windows) or
// a sender sharing this GPN's engine reserves.
type hierGPN struct {
	eng *sim.Engine
	// intra holds pesPerGPN×pesPerGPN links of this GPN's mesh.
	intra     []link
	stats     Stats
	intraBusy float64
	msgBytes  stats.Histogram
	// out and in are the GPN's crossbar ports, with their busy cycles.
	out, in         link
	outBusy, inBusy float64
	outbox          []outMsg
	// Coalescing stage (nil when disabled): per-destination-PE buffers,
	// plus a generation-stamped vertex→payload-slot index shared across
	// the buffers (sound because each vertex has exactly one owner PE).
	coal []coalBuf
	vidx []int32
	vgen []uint32
	seq  uint32
}

// Hierarchical is NOVA's production fabric: a fully-connected point-to-
// point mesh among the PEs of each GPN, and a crossbar between GPNs. A
// cross-GPN message serializes through its source GPN's out-port, then
// its destination GPN's in-port, and pays the switch latency. The
// crossbar is the cross-shard boundary; its latency is the cluster
// lookahead.
type Hierarchical struct {
	engines   []*sim.Engine
	pesPerGPN int
	p2p       P2PConfig
	xbar      CrossbarConfig
	coalesce  CoalesceConfig
	merge     MergeFunc
	gpn       []hierGPN
	// total and msgBytesTotal back the dump records; Finalize folds the
	// per-GPN accumulators into them.
	total         Stats
	msgBytesTotal stats.Histogram
}

// NewFabric builds a hierarchical fabric for len(engines) GPNs of
// pesPerGPN PEs each, GPN g running on engines[g] (name one engine for
// every GPN for a single-event-loop system).
func NewFabric(engines []*sim.Engine, pesPerGPN int, cfg FabricConfig) *Hierarchical {
	if len(engines) == 0 || pesPerGPN <= 0 {
		panic(fmt.Sprintf("network: invalid geometry %d GPNs × %d PEs", len(engines), pesPerGPN))
	}
	h := &Hierarchical{
		engines:   engines,
		pesPerGPN: pesPerGPN,
		p2p:       cfg.P2P,
		xbar:      cfg.Crossbar,
		coalesce:  cfg.Coalesce,
		gpn:       make([]hierGPN, len(engines)),
	}
	for g := range h.gpn {
		if engines[g] == nil {
			panic(fmt.Sprintf("network: nil engine for gpn%d", g))
		}
		h.gpn[g].eng = engines[g]
		h.gpn[g].intra = make([]link, pesPerGPN*pesPerGPN)
	}
	if cfg.Coalesce.Window > 0 {
		h.initCoalesce(cfg.Vertices)
	}
	return h
}

// SetMerge installs the program's delta-merge function, letting the
// coalescing stage fold same-destination-vertex updates into one message
// entry instead of only appending. Call before the run starts; nil keeps
// append-only coalescing (always correct for any program).
func (h *Hierarchical) SetMerge(f MergeFunc) { h.merge = f }

// Send implements Fabric.
func (h *Hierarchical) Send(src, dst, bytes int, deliver sim.Handler) {
	sg, dg := src/h.pesPerGPN, dst/h.pesPerGPN
	g := &h.gpn[sg]
	if sg == dg {
		g.stats.Messages++
		g.stats.Bytes += uint64(bytes)
		g.msgBytes.Observe(uint64(bytes))
		g.stats.LocalBytes += uint64(bytes)
		g.intraBusy += float64(bytes) / h.p2p.BytesPerCycle
		l := &g.intra[(src%h.pesPerGPN)*h.pesPerGPN+dst%h.pesPerGPN]
		l.transfer(g.eng, bytes, h.p2p.BytesPerCycle, h.p2p.Latency, deliver)
		return
	}
	if g.coal != nil {
		if b, ok := deliver.(Batch); ok {
			h.coalesceSend(g, sg, dst, bytes, b)
			return
		}
	}
	h.sendInter(g, dst, bytes, deliver)
}

// sendInter charges one message to the crossbar: stats, the sender's
// out-port reservation, then either the in-port inline (shared engine) or
// the outbox for Exchange.
func (h *Hierarchical) sendInter(g *hierGPN, dst, bytes int, deliver sim.Handler) {
	g.stats.Messages++
	g.stats.Bytes += uint64(bytes)
	g.msgBytes.Observe(uint64(bytes))
	g.stats.InterBytes += uint64(bytes)
	g.stats.InterMessages++
	g.outBusy += float64(bytes) / h.xbar.BytesPerCycle
	t1 := g.out.reserve(float64(g.eng.Now()), bytes, h.xbar.BytesPerCycle)
	d := &h.gpn[dst/h.pesPerGPN]
	if d.eng == g.eng {
		// Both GPNs share one event loop: reserve the in-port inline.
		g.eng.ScheduleAt(h.inPort(d, t1, bytes), deliver)
		return
	}
	g.outbox = append(g.outbox, outMsg{
		t1: t1, dst: int32(dst), bytes: int32(bytes), deliver: deliver,
	})
}

// inPort reserves d's crossbar in-port for a message whose out-port stage
// finished at t1 and returns the delivery tick. The two port stages
// arbitrate independently (the switch buffers between them), so a busy
// in-port does not convoy-block the out-port before it.
func (h *Hierarchical) inPort(d *hierGPN, t1 float64, bytes int) sim.Ticks {
	d.inBusy += float64(bytes) / h.xbar.BytesPerCycle
	t := d.in.reserve(t1, bytes, h.xbar.BytesPerCycle)
	return sim.Ticks(t+0.999999) + h.xbar.Latency
}

// Lookahead implements Fabric: every cross-engine delivery pays the
// crossbar's switch latency, so it lands at least that far in the
// destination's future.
func (h *Hierarchical) Lookahead() sim.Ticks { return h.xbar.Latency }

// Exchange implements Fabric. Source GPNs drain in ascending index order
// and each outbox preserves send order, so delivery order — and therefore
// every in-port reservation — is identical at any worker count.
func (h *Hierarchical) Exchange() (int, error) {
	delivered := 0
	for sg := range h.gpn {
		g := &h.gpn[sg]
		for i := range g.outbox {
			m := &g.outbox[i]
			dg := int(m.dst) / h.pesPerGPN
			d := &h.gpn[dg]
			when := h.inPort(d, m.t1, int(m.bytes))
			if now := d.eng.Now(); when < now {
				return delivered, fmt.Errorf(
					"network: cross-shard message gpn%d→gpn%d arrives at tick %d, behind destination time %d (lookahead violation)",
					sg, dg, when, now)
			}
			d.eng.ScheduleAt(when, m.deliver)
			m.deliver = nil
			delivered++
		}
		g.outbox = g.outbox[:0]
	}
	return delivered, nil
}

// Stats implements Fabric, summing the per-GPN counters on the fly.
func (h *Hierarchical) Stats() Stats {
	var s Stats
	for g := range h.gpn {
		s.add(h.gpn[g].stats)
	}
	return s
}

// Finalize implements Fabric.
func (h *Hierarchical) Finalize() {
	h.total = h.Stats()
	h.msgBytesTotal = stats.Histogram{}
	for g := range h.gpn {
		h.msgBytesTotal.Merge(h.gpn[g].msgBytes)
	}
}

// RegisterStats implements Fabric: traffic counters and the message-size
// histogram at the fabric root (filled in by Finalize), plus per-GPN
// busy-cycle totals and utilization formulas for the point-to-point mesh
// and the two crossbar ports. Intra-GPN utilization is normalised by the
// aggregate bandwidth of a GPN's point-to-point mesh (pesPerGPN² links).
func (h *Hierarchical) RegisterStats(g *stats.Group) {
	g.Uint64(&h.total.Messages, "messages", stats.Count, "messages sent over the fabric")
	g.Uint64(&h.total.Bytes, "bytes", stats.Bytes, "total message payload moved")
	g.Uint64(&h.total.LocalBytes, "local_bytes", stats.Bytes, "bytes that stayed within one GPN's point-to-point mesh")
	g.Uint64(&h.total.InterBytes, "inter_bytes", stats.Bytes, "bytes that crossed the inter-GPN fabric")
	g.Uint64(&h.total.InterMessages, "inter_messages", stats.Count, "messages that crossed the inter-GPN fabric (after coalescing)")
	g.Uint64(&h.total.Coalesced, "messages_coalesced", stats.Count, "message batches absorbed into a buffered same-destination batch")
	g.Uint64(&h.total.MergedUpdates, "merged_updates", stats.Count, "same-vertex updates folded by the program's delta-merge function")
	g.Uint64(&h.total.BytesSaved, "bytes_saved", stats.Bytes, "payload the fabric never carried thanks to merging")
	g.Histogram(&h.msgBytesTotal, "message_bytes", stats.Bytes, "per-message payload size (log2 buckets)")
	elapsed := func() float64 {
		var t sim.Ticks
		for _, e := range h.engines {
			if n := e.Now(); n > t {
				t = n
			}
		}
		if t > 0 {
			return float64(t)
		}
		return 1
	}
	for gi := range h.gpn {
		gp := &h.gpn[gi]
		gg := g.Group(fmt.Sprintf("gpn%d", gi))
		gg.Float64(&gp.intraBusy, "p2p_busy_cycles", stats.Cycles, "aggregate link-busy cycles on the GPN's point-to-point mesh")
		links := float64(h.pesPerGPN * h.pesPerGPN)
		gg.Formula(func() float64 { return gp.intraBusy / (elapsed() * links) },
			"p2p_utilization", stats.Ratio, "point-to-point mesh utilization (busy / elapsed·links)")
		gg.Float64(&gp.outBusy, "xbar_out_busy_cycles", stats.Cycles, "busy cycles on the GPN's crossbar output port")
		gg.Float64(&gp.inBusy, "xbar_in_busy_cycles", stats.Cycles, "busy cycles on the GPN's crossbar input port")
		gg.Formula(func() float64 { return gp.outBusy / elapsed() },
			"xbar_out_utilization", stats.Ratio, "crossbar output port utilization")
		gg.Formula(func() float64 { return gp.inBusy / elapsed() },
			"xbar_in_utilization", stats.Ratio, "crossbar input port utilization")
	}
}

// idealMsg is one buffered cross-engine message on the ideal fabric.
type idealMsg struct {
	when    sim.Ticks
	deliver sim.Handler
	dst     int32
}

// idealGPN is the per-GPN slice of an Ideal fabric; written only by the
// owning shard's goroutine.
type idealGPN struct {
	eng      *sim.Engine
	stats    Stats
	msgBytes stats.Histogram
	outbox   []idealMsg
}

// Ideal is a fully-connected point-to-point fabric with unlimited bandwidth
// and a fixed latency — the "P2P with infinite bandwidth" configuration of
// Figure 9c.
type Ideal struct {
	engines       []*sim.Engine
	pesPerGPN     int
	latency       sim.Ticks
	gpn           []idealGPN
	total         Stats
	msgBytesTotal stats.Histogram
}

// NewIdeal builds an ideal fabric for len(engines) GPNs of pesPerGPN PEs
// each, GPN g running on engines[g].
func NewIdeal(engines []*sim.Engine, pesPerGPN int, latency sim.Ticks) *Ideal {
	if len(engines) == 0 || pesPerGPN <= 0 {
		panic(fmt.Sprintf("network: invalid geometry %d GPNs × %d PEs", len(engines), pesPerGPN))
	}
	f := &Ideal{
		engines:   engines,
		pesPerGPN: pesPerGPN,
		latency:   latency,
		gpn:       make([]idealGPN, len(engines)),
	}
	for g := range f.gpn {
		if engines[g] == nil {
			panic(fmt.Sprintf("network: nil engine for gpn%d", g))
		}
		f.gpn[g].eng = engines[g]
	}
	return f
}

// Send implements Fabric.
func (f *Ideal) Send(src, dst, bytes int, deliver sim.Handler) {
	sg, dg := src/f.pesPerGPN, dst/f.pesPerGPN
	g := &f.gpn[sg]
	g.stats.Messages++
	g.stats.Bytes += uint64(bytes)
	g.stats.LocalBytes += uint64(bytes)
	g.msgBytes.Observe(uint64(bytes))
	if f.gpn[dg].eng == g.eng {
		g.eng.Schedule(f.latency, deliver)
		return
	}
	g.outbox = append(g.outbox, idealMsg{
		when: g.eng.Now() + f.latency, deliver: deliver, dst: int32(dst),
	})
}

// Lookahead implements Fabric: every message takes the fixed latency.
func (f *Ideal) Lookahead() sim.Ticks { return f.latency }

// Exchange implements Fabric.
func (f *Ideal) Exchange() (int, error) {
	delivered := 0
	for sg := range f.gpn {
		g := &f.gpn[sg]
		for i := range g.outbox {
			m := &g.outbox[i]
			dg := int(m.dst) / f.pesPerGPN
			d := &f.gpn[dg]
			if now := d.eng.Now(); m.when < now {
				return delivered, fmt.Errorf(
					"network: cross-shard message gpn%d→gpn%d arrives at tick %d, behind destination time %d (lookahead violation)",
					sg, dg, m.when, now)
			}
			d.eng.ScheduleAt(m.when, m.deliver)
			m.deliver = nil
			delivered++
		}
		g.outbox = g.outbox[:0]
	}
	return delivered, nil
}

// Stats implements Fabric.
func (f *Ideal) Stats() Stats {
	var s Stats
	for g := range f.gpn {
		s.add(f.gpn[g].stats)
	}
	return s
}

// Finalize implements Fabric.
func (f *Ideal) Finalize() {
	f.total = f.Stats()
	f.msgBytesTotal = stats.Histogram{}
	for g := range f.gpn {
		f.msgBytesTotal.Merge(f.gpn[g].msgBytes)
	}
}

// RegisterStats implements Fabric. The ideal fabric has no contention, so
// only traffic counters and message sizes are reported.
func (f *Ideal) RegisterStats(g *stats.Group) {
	g.Uint64(&f.total.Messages, "messages", stats.Count, "messages sent over the fabric")
	g.Uint64(&f.total.Bytes, "bytes", stats.Bytes, "total message payload moved")
	g.Uint64(&f.total.LocalBytes, "local_bytes", stats.Bytes, "bytes delivered (all traffic is local on the ideal fabric)")
	g.Histogram(&f.msgBytesTotal, "message_bytes", stats.Bytes, "per-message payload size (log2 buckets)")
}
