package core

import (
	"nova/graph"
	"nova/internal/mem"
	"nova/internal/network"
	"nova/internal/sim"
	"nova/internal/stats"
	"nova/program"
)

// PE is one processing element: a message-driven processor owning a
// contiguous slice of the vertex set (in local "slots"), its own HBM2
// vertex channel and cache (MPU), a vertex management unit (VMU), and a
// message generation unit (MGU) streaming edges from the GPN's shared
// DDR4 channels.
type PE struct {
	sys *System
	// sh is the owning shard; eng its event loop. All of this PE's
	// scheduling goes through eng, so the PE runs entirely on its
	// shard's goroutine.
	sh  *shardState
	eng *sim.Engine
	id  int // global PE index
	gpn int

	// Vertex placement: localVerts[slot] = global vertex ID.
	localVerts []graph.VertexID

	// Edge storage: the out-edges of local vertices, concatenated in
	// slot order. localRowPtr is indexed by slot.
	localRowPtr []int64
	edgeDst     []graph.VertexID
	edgeWgt     []uint32
	edgeBase    uint64 // byte offset of this PE's region in GPN edge space

	vchan *mem.Channel
	cache *mem.Cache
	vmu   *VMU
	// ssd is the GPN's shared out-of-core device (nil unless
	// cfg.OutOfCore): vertex blocks whose SSD page is outside the
	// resident window pay a page-in before the HBM2 access.
	ssd *mem.SSD

	// MPU state.
	inbox     []program.Message
	inboxHead int
	mshr      mshrFile
	redSlot   sim.Ticks
	redUsed   int

	// MGU state.
	mguInflight int
	sendBuckets [][]program.Message
	fifoTick    uint64
	// Shard-local slices of the machine-wide work counters: written only
	// by this PE's shard, summed into the System totals at collect time.
	// messagesSent counts propagations that produced a message, so it is
	// also the edges traversed and this PE's load-balance signal.
	messagesSent int64
	coalesced    int64
	// inboxDepth samples the MPU backlog at each delivery; batchVerts and
	// batchEdges profile propagation batches. Plain array/field updates.
	inboxDepth stats.Histogram
	batchVerts stats.Distribution
	batchEdges stats.Distribution

	// Pre-allocated event-handler pools: one free list per recurring
	// schedule in the MPU/MGU pipelines, so steady-state simulation never
	// allocates a closure per message, fill, fetch, or delivery.
	freeReduce  *reduceTask
	freeFill    *fillTask
	freeProp    *propTask
	freeDeliver *deliverTask
	// vertsScratch collects a block's active vertices in pumpMGU.
	vertsScratch []graph.VertexID
}

// mshrFile is the MPU's miss-status holding registers: a fixed table of
// cfg.MSHRs outstanding vertex-block reads. An entry holds the messages
// waiting on its block in arrival order, the primary miss first and every
// merged secondary miss after it. Entries keep their waiter buffers across
// fills, so once those buffers have grown the miss path never allocates.
type mshrFile struct {
	waiters [][]program.Message // per entry
	free    []int32             // stack of free entry indices
	byBlock []int32             // local block index -> entry index + 1; 0 = none
}

func newMSHRFile(entries, blocks int) mshrFile {
	f := mshrFile{
		waiters: make([][]program.Message, entries),
		free:    make([]int32, entries),
		byBlock: make([]int32, blocks),
	}
	for i := range f.free {
		f.free[i] = int32(i)
	}
	return f
}

// merge appends msg to block bi's outstanding read, if there is one.
func (f *mshrFile) merge(bi int, msg program.Message) bool {
	e := f.byBlock[bi]
	if e == 0 {
		return false
	}
	f.waiters[e-1] = append(f.waiters[e-1], msg)
	return true
}

// take allocates an entry for block bi with msg as its first waiter. It
// reports false when every entry is in use.
func (f *mshrFile) take(bi int, msg program.Message) bool {
	n := len(f.free)
	if n == 0 {
		return false
	}
	e := f.free[n-1]
	f.free = f.free[:n-1]
	f.byBlock[bi] = e + 1
	f.waiters[e] = append(f.waiters[e][:0], msg)
	return true
}

// release frees block bi's entry and returns its waiters in arrival order.
// The slice is the entry's buffer: consume it before the next take.
func (f *mshrFile) release(bi int) []program.Message {
	e := f.byBlock[bi] - 1
	f.byBlock[bi] = 0
	f.free = append(f.free, e)
	return f.waiters[e]
}

// busy reports whether any read is outstanding.
func (f *mshrFile) busy() bool { return len(f.free) < len(f.waiters) }

// reduceTask fires one message's reduce at its FU slot.
type reduceTask struct {
	pe   *PE
	msg  program.Message
	next *reduceTask
}

func (t *reduceTask) Fire() {
	pe, msg := t.pe, t.msg
	// Release before reducing: finishReduce can schedule further reduces
	// and reuse this task immediately.
	t.next = pe.freeReduce
	pe.freeReduce = t
	pe.finishReduce(msg)
}

// scheduleReduce books msg's reduction on the next free FU slot.
func (pe *PE) scheduleReduce(msg program.Message) {
	t := pe.freeReduce
	if t == nil {
		t = &reduceTask{pe: pe}
	} else {
		pe.freeReduce = t.next
	}
	t.msg = msg
	pe.eng.ScheduleAt(pe.nextReduceSlot(), t)
}

// fillTask fires when a vertex block returns from HBM.
type fillTask struct {
	pe    *PE
	block uint64
	next  *fillTask
}

func (t *fillTask) Fire() {
	pe, block := t.pe, t.block
	t.next = pe.freeFill
	pe.freeFill = t
	pe.fillDone(block)
}

func (pe *PE) newFillTask(block uint64) *fillTask {
	t := pe.freeFill
	if t == nil {
		t = &fillTask{pe: pe}
	} else {
		pe.freeFill = t.next
	}
	t.block = block
	return t
}

// propTask tracks one in-flight propagation batch: its Fire counts edge-
// fetch completions, and the embedded gen handler fires the message-
// generation stage. Both stages reuse the same pre-allocated object and
// its verts backing array across launches.
type propTask struct {
	pe         *PE
	verts      []graph.VertexID
	totalEdges int64
	launchTick sim.Ticks
	pending    int
	started    bool
	gen        genStage
	next       *propTask
}

// genStage is scheduled via a pointer into its owning propTask, so the
// Handler conversion never allocates.
type genStage struct{ t *propTask }

func (g *genStage) Fire() { g.t.pe.generateMessages(g.t) }

// Fire counts one completed edge-fetch chunk; the last one launches
// message generation at PropagateFU rate.
func (t *propTask) Fire() {
	t.pending--
	if t.pending == 0 && t.started {
		t.scheduleGen()
	}
}

func (t *propTask) scheduleGen() {
	cfg := &t.pe.sys.cfg
	dur := sim.Ticks((t.totalEdges + int64(cfg.PropagateFUs) - 1) / int64(cfg.PropagateFUs))
	if dur == 0 {
		dur = 1
	}
	t.pe.eng.Schedule(dur, &t.gen)
}

func (pe *PE) newPropTask(verts []graph.VertexID, totalEdges int64) *propTask {
	t := pe.freeProp
	if t == nil {
		t = &propTask{pe: pe}
		t.gen.t = t
	} else {
		pe.freeProp = t.next
	}
	t.verts = append(t.verts[:0], verts...)
	t.totalEdges = totalEdges
	t.launchTick = pe.eng.Now()
	t.pending = 0
	t.started = false
	return t
}

func (pe *PE) releasePropTask(t *propTask) {
	t.next = pe.freeProp
	pe.freeProp = t
}

// deliverTask hands one message batch to its destination PE at arrival
// time. The batch buffer stays with the task and is reused for the owning
// PE's next send to any destination.
type deliverTask struct {
	owner  *PE
	target *PE
	msgs   []program.Message
	next   *deliverTask
}

func (t *deliverTask) Fire() {
	t.target.deliver(t.msgs)
	if t.owner.sh != t.target.sh {
		// Fired on the destination's shard: the owner's free list is
		// not ours to touch from this goroutine. Park the task on the
		// destination shard's spent list; the window barrier returns it
		// to the owner's pool.
		sh := t.target.sh
		t.target = nil
		sh.spentDeliver = append(sh.spentDeliver, t)
		return
	}
	t.target = nil
	o := t.owner
	t.next = o.freeDeliver
	o.freeDeliver = t
}

// Payload, SetPayload and Discard implement network.Batch: the fabric's
// coalescing stage rewrites a waiting task's messages when a later batch
// to the same destination merges into it, and discards the absorbed task.
// Discard runs on the owner's shard (Send is called from the sender's
// goroutine) before the task was ever scheduled, so the free-list push is
// safe.
func (t *deliverTask) Payload() []program.Message     { return t.msgs }
func (t *deliverTask) SetPayload(m []program.Message) { t.msgs = m }
func (t *deliverTask) Discard() {
	t.target = nil
	o := t.owner
	t.next = o.freeDeliver
	o.freeDeliver = t
}

var _ network.Batch = (*deliverTask)(nil)

func (pe *PE) newDeliverTask(target *PE, batch []program.Message) *deliverTask {
	t := pe.freeDeliver
	if t == nil {
		t = &deliverTask{owner: pe}
	} else {
		pe.freeDeliver = t.next
	}
	t.target = target
	t.msgs = append(t.msgs[:0], batch...)
	return t
}

func (pe *PE) numBlocks() int {
	cfg := &pe.sys.cfg
	bytes := len(pe.localVerts) * cfg.VertexBytes
	n := (bytes + cfg.BlockBytes - 1) / cfg.BlockBytes
	if n == 0 {
		n = 1
	}
	return n
}

// vaddr returns the PE-local byte address of a vertex record.
func (pe *PE) vaddr(v graph.VertexID) uint64 {
	return uint64(pe.sys.slot[v]) << pe.sys.vertexShift
}

func (pe *PE) blockAddrOf(addr uint64) uint64 {
	return addr >> pe.sys.blockShift << pe.sys.blockShift
}

func (pe *PE) vertexBlockAddr(v graph.VertexID) uint64 {
	return pe.blockAddrOf(pe.vaddr(v))
}

func (pe *PE) blockIndex(blockAddr uint64) int {
	return int(blockAddr >> pe.sys.blockShift)
}

// blockSlots returns the slot range [lo, hi) covered by a block.
func (pe *PE) blockSlots(blockAddr uint64) (int, int) {
	sys := pe.sys
	lo := int(blockAddr >> sys.vertexShift)
	hi := lo + 1<<(sys.blockShift-sys.vertexShift)
	if hi > len(pe.localVerts) {
		hi = len(pe.localVerts)
	}
	return lo, hi
}

// blockHasActive reports whether any vertex in the block is flagged active
// and not already queued in the active buffer.
func (pe *PE) blockHasActive(blockAddr uint64) bool {
	lo, hi := pe.blockSlots(blockAddr)
	for s := lo; s < hi; s++ {
		if pe.sys.activeFlag[pe.localVerts[s]] {
			return true
		}
	}
	return false
}

// fifoSpillAddr returns a rotating off-chip address for FIFO-policy spill
// traffic (a dedicated region past the vertex set).
func (pe *PE) fifoSpillAddr() uint64 {
	base := uint64(pe.numBlocks()) * uint64(pe.sys.cfg.BlockBytes)
	pe.fifoTick++
	return base + (pe.fifoTick*16)%(1<<20)
}

// --- Message processing unit -------------------------------------------

// deliver appends incoming messages and pumps the MPU.
func (pe *PE) deliver(msgs []program.Message) {
	pe.inbox = append(pe.inbox, msgs...)
	pe.inboxDepth.Observe(uint64(len(pe.inbox) - pe.inboxHead))
	pe.pumpMPU()
}

// nextReduceSlot allocates the next cycle with a free reduce FU.
func (pe *PE) nextReduceSlot() sim.Ticks {
	now := pe.eng.Now() + 1
	if pe.redSlot < now {
		pe.redSlot = now
		pe.redUsed = 0
	}
	if pe.redUsed >= pe.sys.cfg.ReduceFUs {
		pe.redSlot++
		pe.redUsed = 0
	}
	pe.redUsed++
	return pe.redSlot
}

// pumpMPU processes inbox messages: cache hits reduce after an FU slot;
// misses allocate an MSHR (merging secondary misses to the same block) and
// reduce when the vertex block returns from HBM.
func (pe *PE) pumpMPU() {
	cfg := &pe.sys.cfg
	for pe.inboxHead < len(pe.inbox) {
		msg := pe.inbox[pe.inboxHead]
		addr := pe.vaddr(msg.Dst)
		block := pe.blockAddrOf(addr)
		if pe.cache.Access(addr) {
			pe.inboxHead++
			pe.scheduleReduce(msg)
			continue
		}
		bi := pe.blockIndex(block)
		if pe.mshr.merge(bi, msg) {
			pe.inboxHead++
			continue
		}
		if !pe.mshr.take(bi, msg) {
			break // back-pressure: retry when an MSHR frees
		}
		pe.inboxHead++
		pe.vchan.Access(mem.Request{
			Addr:  block,
			Bytes: cfg.BlockBytes,
			Kind:  mem.UsefulRead,
			Done:  pe.newFillTask(block),
		})
	}
	if pe.inboxHead == len(pe.inbox) {
		pe.inbox = pe.inbox[:0]
		pe.inboxHead = 0
	} else if pe.inboxHead > 4096 && pe.inboxHead*2 >= len(pe.inbox) {
		pe.inbox = append(pe.inbox[:0:0], pe.inbox[pe.inboxHead:]...)
		pe.inboxHead = 0
	}
}

func (pe *PE) fillDone(block uint64) {
	pe.cache.Fill(block) // eviction hook: write-back + tracker update
	for _, msg := range pe.mshr.release(pe.blockIndex(block)) {
		pe.scheduleReduce(msg)
	}
	pe.pumpMPU() // an MSHR freed
}

// markDirty records the vertex write. If the block slipped out of the
// cache while the reduce was in flight, charge a direct write-through.
func (pe *PE) markDirty(addr uint64) {
	if pe.cache.MarkDirty(addr) {
		return
	}
	pe.vchan.Access(mem.Request{
		Addr:  pe.blockAddrOf(addr),
		Bytes: pe.sys.cfg.BlockBytes,
		Kind:  mem.WriteAccess,
	})
}

// finishReduce applies the reduce function — the blue block of
// Algorithm 1 — and hands new activations to the VMU.
func (pe *PE) finishReduce(msg program.Message) {
	sys := pe.sys
	v := msg.Dst
	addr := pe.vaddr(v)
	if sys.bsp != nil {
		// BSP: accumulate into next_prop; activation happens at the
		// barrier via Apply.
		if !sys.touched[v] {
			sys.touched[v] = true
			sys.accum[v] = sys.bsp.AccumInit()
			pe.sh.touchedList = append(pe.sh.touchedList, v)
		} else {
			pe.coalesced++
		}
		sys.accum[v] = sys.prog.Reduce(v, sys.accum[v], msg.Delta)
		pe.markDirty(addr)
	} else {
		old := sys.props[v]
		next := sys.prog.Reduce(v, old, msg.Delta)
		changed := next != old
		if sys.activeFlag[v] {
			if changed && sys.cfg.Spill == SpillFIFO {
				// Table I: the off-chip FIFO cannot coalesce — every
				// further update appends a duplicate entry, later
				// popped as a stale retrieval.
				pe.vmu.onActivate(v)
			} else {
				pe.coalesced++
			}
		}
		if changed {
			sys.props[v] = next
			pe.markDirty(addr)
			if !sys.activeFlag[v] {
				sys.activate(v)
				pe.pumpMGU()
			}
		}
	}
	pe.pumpMPU()
}

// --- Message generation unit --------------------------------------------

// pumpMGU pulls active blocks from the VMU, streams their edges from edge
// memory, and generates messages — the red block of Algorithm 1.
func (pe *PE) pumpMGU() {
	cfg := &pe.sys.cfg
	pe.vmu.maybePrefetch()
	for pe.mguInflight < cfg.MGUPipelineDepth {
		entry, ok := pe.vmu.popBuffer()
		if !ok {
			return
		}
		verts := pe.vertsScratch[:0]
		if cfg.Spill == SpillFIFO {
			v := graph.VertexID(entry)
			if !pe.sys.activeFlag[v] {
				pe.vmu.stats.StaleRetrievals++
				pe.vmu.maybePrefetch()
				continue
			}
			verts = append(verts, v)
		} else {
			lo, hi := pe.blockSlots(entry)
			for s := lo; s < hi; s++ {
				gv := pe.localVerts[s]
				if pe.sys.activeFlag[gv] {
					verts = append(verts, gv)
				}
			}
			if len(verts) == 0 {
				pe.vertsScratch = verts
				pe.vmu.maybePrefetch()
				continue
			}
		}
		pe.vertsScratch = verts
		for _, v := range verts {
			pe.sys.deactivate(v)
		}
		pe.launchPropagation(verts)
		pe.vmu.maybePrefetch()
	}
}

// launchPropagation fetches the edges of the given active vertices and,
// when the stream arrives, generates their messages at PropagateFU rate.
// The in-flight batch state lives in a pooled propTask, so a steady MGU
// pipeline schedules without allocating.
func (pe *PE) launchPropagation(verts []graph.VertexID) {
	sys := pe.sys
	cfg := &sys.cfg
	var totalEdges int64
	for _, v := range verts {
		slot := int(sys.slot[v])
		totalEdges += pe.localRowPtr[slot+1] - pe.localRowPtr[slot]
	}
	if totalEdges == 0 {
		return
	}
	pe.batchVerts.Sample(float64(len(verts)))
	pe.batchEdges.Sample(float64(totalEdges))
	pe.mguInflight++
	t := pe.newPropTask(verts, totalEdges)
	// Merge the edge ranges of adjacent slots (vertices of one block are
	// consecutive, so their edge arrays are contiguous): one burst per
	// run instead of one access per vertex. Spans collapse to address
	// ranges on the fly — the chunk loop below is the only consumer.
	var spanLo, spanHi int64 = 0, -1
	flush := func() {
		if spanHi <= spanLo {
			return
		}
		start := pe.edgeBase + uint64(spanLo)*uint64(cfg.EdgeBytes)
		end := pe.edgeBase + uint64(spanHi)*uint64(cfg.EdgeBytes)
		for start < end {
			pageEnd := (start/edgePageBytes + 1) * edgePageBytes
			if pageEnd > end {
				pageEnd = end
			}
			ch := sys.edgeChans[pe.gpn][(start/edgePageBytes)%uint64(cfg.EdgeChannelsPerGPN)]
			t.pending++
			ch.Access(mem.Request{
				Addr:  start,
				Bytes: int(pageEnd - start),
				Kind:  mem.UsefulRead,
				Done:  t,
			})
			start = pageEnd
		}
	}
	for _, v := range verts {
		slot := int(sys.slot[v])
		lo := pe.localRowPtr[slot]
		hi := pe.localRowPtr[slot+1]
		if lo == hi {
			continue
		}
		if spanHi == lo {
			spanHi = hi
			continue
		}
		flush()
		spanLo, spanHi = lo, hi
	}
	flush()
	t.started = true
	if t.pending == 0 {
		// All chunks completed synchronously (cannot happen — channel
		// completions are always future events) — keep safe anyway.
		t.scheduleGen()
	}
}

// edgePageBytes is the interleave granularity across edge channels.
const edgePageBytes = 4096

// generateMessages applies the propagate function to every edge of the
// batch, grouping messages by destination PE so each burst is one fabric
// transfer, then frees the MGU pipeline slot. It runs from the propTask's
// genStage event, PropagateFU-rate ticks after the edge stream arrived.
func (pe *PE) generateMessages(t *propTask) {
	sys := pe.sys
	cfg := &sys.cfg
	for _, v := range t.verts {
		prop := sys.props[v]
		if sys.selfUpd != nil {
			// Delta-accumulative programs fold pending state into
			// the vertex at propagation time (and the fold is a
			// vertex write).
			sys.props[v], prop = sys.selfUpd.OnPropagate(v, sys.props[v])
			pe.markDirty(pe.vaddr(v))
		}
		if sys.prep != nil {
			prop = sys.prep.PrepareProp(v, prop)
		}
		slot := int(sys.slot[v])
		lo, hi := pe.localRowPtr[slot], pe.localRowPtr[slot+1]
		outDeg := hi - lo
		for i := lo; i < hi; i++ {
			delta, ok := sys.prog.Propagate(prop, pe.edgeWgt[i], outDeg)
			if !ok {
				continue
			}
			dst := pe.edgeDst[i]
			owner := sys.part.Owner[dst]
			pe.sendBuckets[owner] = append(pe.sendBuckets[owner], program.Message{Dst: dst, Delta: delta})
		}
	}
	var sent int
	for owner := range pe.sendBuckets {
		batch := pe.sendBuckets[owner]
		if len(batch) == 0 {
			continue
		}
		sent += len(batch)
		dt := pe.newDeliverTask(sys.pes[owner], batch)
		pe.sendBuckets[owner] = batch[:0]
		if owner == pe.id {
			pe.eng.Schedule(1, dt)
		} else {
			sys.fabric.Send(pe.id, owner, len(batch)*cfg.MessageBytes, dt)
		}
	}
	pe.messagesSent += int64(sent)
	sys.tracer.Span("mgu", "propagate", pe.id, t.launchTick, pe.eng.Now())
	pe.mguInflight--
	pe.releasePropTask(t)
	pe.pumpMGU()
}
