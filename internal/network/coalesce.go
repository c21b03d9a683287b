// In-fabric message coalescing: cross-GPN message batches wait in a
// per-destination outbox buffer for a configurable window before
// traversing the inter-GPN crossbar, and batches to the same destination
// PE that arrive while one is waiting merge into it — PolyGraph's
// batching idea applied at the link level. Merging collapses many fabric
// messages (and many destination-side delivery events) into one, which is
// both a bandwidth win in the modeled machine and a simulator-speed win.
//
// Determinism: all coalescing state is owned by the source GPN's shard —
// buffers fill and flush entirely on the sender's engine, and the flush
// timer is an ordinary event on that engine — so results are bit-identical
// at every worker count. With a program-supplied merge function (exact for
// the min-reductions of BFS/SSSP/CC), same-vertex updates fold into one
// message entry; without one, payloads only concatenate, which is correct
// for any program.
package network

import (
	"nova/internal/sim"
	"nova/program"
)

// CoalesceConfig tunes the in-fabric coalescing stage.
type CoalesceConfig struct {
	// Window is how many ticks a cross-GPN batch waits for merge partners
	// before traversing the fabric. 0 disables coalescing.
	Window sim.Ticks
	// Capacity bounds the buffered message entries per destination PE; a
	// buffer reaching it flushes immediately. 0 means
	// DefaultCoalesceCapacity.
	Capacity int
}

// DefaultCoalesceCapacity bounds a coalescing buffer when
// CoalesceConfig.Capacity is 0.
const DefaultCoalesceCapacity = 64

func (c CoalesceConfig) capacity() int {
	if c.Capacity > 0 {
		return c.Capacity
	}
	return DefaultCoalesceCapacity
}

// MergeFunc combines two in-flight deltas addressed to the same vertex.
// It must satisfy Reduce(Reduce(cur,a),b) == Reduce(cur, merge(a,b)) for
// the running program's Reduce (see program.DeltaMerger).
type MergeFunc func(a, b program.Prop) program.Prop

// Batch is the optional interface a Send delivery handler implements to
// opt into coalescing: the fabric reads and rewrites the handler's
// message payload while it waits for link bandwidth, and Discards
// handlers it absorbed into another. Discard is called on the sending
// shard's goroutine, before the handler was ever scheduled.
type Batch interface {
	sim.Handler
	Payload() []program.Message
	SetPayload([]program.Message)
	Discard()
}

// coalFlush is the pre-allocated flush-timer handler of one buffer.
type coalFlush struct {
	h   *Hierarchical
	sg  int32
	dst int32
}

func (f *coalFlush) Fire() { f.h.flushCoal(int(f.sg), int(f.dst)) }

// coalBuf buffers at most one in-flight Batch per destination PE.
type coalBuf struct {
	// head is the accumulating batch; nil when the buffer is empty.
	head Batch
	// offeredBytes sums the bytes of every Send absorbed since the last
	// flush; the flushed message carries len(payload)×bytesPerMsg, and
	// the difference is BytesSaved.
	offeredBytes int
	bytesPerMsg  int32
	// gen stamps the vertex index entries of the current fill.
	gen     uint32
	flush   coalFlush
	flushEv *sim.Event
}

// initCoalesce allocates the per-GPN coalescing state: one buffer (with a
// pre-allocated flush event) per destination PE, and the vertex→slot
// index when the vertex count is known.
func (h *Hierarchical) initCoalesce(vertices int) {
	totalPEs := len(h.gpn) * h.pesPerGPN
	for gi := range h.gpn {
		g := &h.gpn[gi]
		g.coal = make([]coalBuf, totalPEs)
		for dst := range g.coal {
			b := &g.coal[dst]
			b.flush = coalFlush{h: h, sg: int32(gi), dst: int32(dst)}
			b.flushEv = sim.NewEvent(&b.flush)
		}
		if vertices > 0 {
			g.vidx = make([]int32, vertices)
			g.vgen = make([]uint32, vertices)
		}
	}
}

// coalesceSend buffers a cross-GPN batch: the first batch to a
// destination opens the buffer and arms the flush timer; later batches
// fold into it (merging same-vertex deltas when a MergeFunc is installed)
// and are discarded. A buffer reaching capacity flushes immediately.
func (h *Hierarchical) coalesceSend(g *hierGPN, sg, dst, bytes int, b Batch) {
	buf := &g.coal[dst]
	limit := h.coalesce.capacity()
	if buf.head == nil {
		buf.head = b
		buf.offeredBytes = bytes
		payload := b.Payload()
		if n := len(payload); n > 0 {
			buf.bytesPerMsg = int32(bytes / n)
		} else {
			buf.bytesPerMsg = 0
		}
		if h.merge != nil && g.vidx != nil {
			g.seq++
			buf.gen = g.seq
			for i, m := range payload {
				g.vidx[m.Dst] = int32(i)
				g.vgen[m.Dst] = buf.gen
			}
		}
		if len(payload) >= limit {
			h.flushCoal(sg, dst)
			return
		}
		g.eng.ScheduleEvent(buf.flushEv, h.coalesce.Window)
		return
	}
	g.stats.Coalesced++
	buf.offeredBytes += bytes
	payload := buf.head.Payload()
	canMerge := h.merge != nil && g.vidx != nil
	for _, m := range b.Payload() {
		if canMerge {
			if g.vgen[m.Dst] == buf.gen {
				e := &payload[g.vidx[m.Dst]]
				e.Delta = h.merge(e.Delta, m.Delta)
				g.stats.MergedUpdates++
				continue
			}
			g.vidx[m.Dst] = int32(len(payload))
			g.vgen[m.Dst] = buf.gen
		}
		payload = append(payload, m)
	}
	buf.head.SetPayload(payload)
	b.Discard()
	if len(payload) >= limit {
		g.eng.Deschedule(buf.flushEv)
		h.flushCoal(sg, dst)
	}
}

// flushCoal closes a buffer and sends its accumulated batch over the
// crossbar as one message, charged for the merged payload only.
func (h *Hierarchical) flushCoal(sg, dst int) {
	g := &h.gpn[sg]
	buf := &g.coal[dst]
	b := buf.head
	if b == nil {
		return
	}
	buf.head = nil
	bytes := len(b.Payload()) * int(buf.bytesPerMsg)
	if bytes > buf.offeredBytes {
		bytes = buf.offeredBytes
	}
	g.stats.BytesSaved += uint64(buf.offeredBytes - bytes)
	h.sendInter(g, dst, bytes, b)
}
