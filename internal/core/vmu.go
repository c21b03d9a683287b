package core

import (
	"nova/graph"
	"nova/internal/mem"
	"nova/internal/sim"
	"nova/internal/stats"
)

// bitset is a dense bit vector used for per-block tracker state.
type bitset struct{ words []uint64 }

func newBitset(n int) bitset { return bitset{words: make([]uint64, (n+63)/64)} }

func (b bitset) get(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }
func (b bitset) set(i int)      { b.words[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int)    { b.words[i>>6] &^= 1 << (uint(i) & 63) }

// VMU is the vertex management unit (Section III-D): it mediates active
// vertices between the MPU (producer) and the MGU (consumer), creating the
// illusion of an active buffer as large as the off-chip vertex memory.
//
// On-chip state: one counter per superblock of the PE's vertex memory, a
// FIFO active buffer holding prefetched blocks, and (for bookkeeping that
// hardware derives from the vertex records themselves) per-block tracked /
// in-buffer bits.
type VMU struct {
	pe *PE

	// Tracker module (overwrite policy).
	counters     []int32
	tracked      bitset
	inBuffer     bitset
	trackedTotal int
	scanOff      []int32 // per-superblock scan position, in blocks
	sbCursor     int     // round-robin scan start over superblocks

	// Active buffer: FIFO of block addresses (overwrite policy) or
	// vertex IDs (FIFO policy).
	buffer     []uint64
	bufferHead int

	inflightPrefetch int
	// batchHits counts recovered-active blocks within the current prefetch
	// batch; observed into stats.BatchHits when the batch completes.
	batchHits uint64

	// Off-chip FIFO (SpillFIFO policy): functional queue of vertex IDs.
	fifo     []graph.VertexID
	fifoHead int

	// Completion-handler pools for the two recovery read paths, so the
	// prefetch/refill pipelines never allocate per request.
	freePrefetch *prefetchTask
	freeFIFO     *fifoTask

	// Out-of-core tier (DESIGN.md §18): pageTags is the PE's direct-mapped
	// resident window over SSD pages of its vertex region (-1 = empty).
	// A recovery read whose page misses the window pays a page-in through
	// the GPN's SSD before its vertex-channel access issues; a tag marks
	// the page resident-or-inflight, so concurrent misses to one page ride
	// the outstanding page-in (an MSHR, in hardware terms). nil when the
	// tier is disabled.
	pageTags   []int64
	freePageIn *pageInTask

	stats VMUStats
	// occupancy samples the buffer fill level at each push (linear
	// buckets); a plain array increment on the activation path.
	occupancy stats.Histogram
}

// prefetchTask completes one tracker-directed block read.
type prefetchTask struct {
	u    *VMU
	bi   int
	addr uint64
	next *prefetchTask
}

func (t *prefetchTask) Fire() {
	u, bi, addr := t.u, t.bi, t.addr
	t.next = u.freePrefetch
	u.freePrefetch = t
	u.inflightPrefetch--
	if u.tracked.get(bi) {
		u.untrack(bi)
		u.stats.PrefetchHits++
		u.batchHits++
		u.pushBuffer(addr)
	}
	// Re-pump on every batch completion: even an all-miss batch
	// must immediately trigger the next superblock scan, or the
	// recovery pipeline stalls.
	if u.inflightPrefetch == 0 {
		u.stats.BatchHits.Sample(float64(u.batchHits))
		u.batchHits = 0
		u.pe.pumpMGU()
	}
}

func (u *VMU) newPrefetchTask(bi int, addr uint64) *prefetchTask {
	t := u.freePrefetch
	if t == nil {
		t = &prefetchTask{u: u}
	} else {
		u.freePrefetch = t.next
	}
	t.bi = bi
	t.addr = addr
	return t
}

// fifoTask completes one off-chip FIFO entry read.
type fifoTask struct {
	u    *VMU
	v    graph.VertexID
	next *fifoTask
}

func (t *fifoTask) Fire() {
	u, v := t.u, t.v
	t.next = u.freeFIFO
	u.freeFIFO = t
	u.inflightPrefetch--
	u.pushBuffer(uint64(v))
	u.pe.pumpMGU()
}

func (u *VMU) newFIFOTask(v graph.VertexID) *fifoTask {
	t := u.freeFIFO
	if t == nil {
		t = &fifoTask{u: u}
	} else {
		u.freeFIFO = t.next
	}
	t.v = v
	return t
}

// pageInTask resumes one recovery read whose page arrived from the SSD.
type pageInTask struct {
	u    *VMU
	bi   int
	addr uint64
	next *pageInTask
}

func (t *pageInTask) Fire() {
	u, bi, addr := t.u, t.bi, t.addr
	t.next = u.freePageIn
	u.freePageIn = t
	u.issueVertexRead(bi, addr)
}

func (u *VMU) newPageInTask(bi int, addr uint64) *pageInTask {
	t := u.freePageIn
	if t == nil {
		t = &pageInTask{u: u}
	} else {
		u.freePageIn = t.next
	}
	t.bi = bi
	t.addr = addr
	return t
}

// VMUStats instruments the trade-offs of Table I.
type VMUStats struct {
	// DirectPushes counts FIFO-policy activations that fit in the
	// on-chip buffer without spilling. The overwrite policy routes every
	// activation through the tracker (Listing 1), so it never pushes
	// directly.
	DirectPushes uint64
	// Spills counts activations that overflowed to off-chip memory.
	Spills uint64
	// SpillWrites counts extra off-chip writes caused by spilling
	// (always 0 for the overwrite policy; 1 per spill for the FIFO).
	SpillWrites uint64
	// PrefetchedBlocks counts blocks read back during recovery.
	PrefetchedBlocks uint64
	// PrefetchHits counts recovered blocks that held active vertices.
	PrefetchHits uint64
	// StaleRetrievals counts FIFO entries that were already propagated
	// when popped (duplicate work the overwrite policy avoids).
	StaleRetrievals uint64
	// BatchHits samples, per completed prefetch batch, how many of its
	// blocks actually held active vertices — the recovery-precision
	// distribution of the superblock tracker (overwrite policy only;
	// PrefetchHits / PrefetchedBlocks gives the same ratio in aggregate,
	// this shows its spread).
	BatchHits stats.Distribution
	// FIFOMaxDepth is the high-water mark of the off-chip FIFO.
	FIFOMaxDepth int
	// MetadataBytes is the explicit per-entry metadata the policy needs
	// off-chip (vertex addresses for the FIFO policy).
	MetadataBytes uint64
	// PageIns counts SSD partition page-ins triggered by recovery reads
	// that missed the resident window (out-of-core tier only), and
	// BytesPaged the page-rounded volume they moved. IOStallTicks sums
	// the full page-in delay those reads paid ahead of their
	// vertex-channel access.
	PageIns      uint64
	BytesPaged   uint64
	IOStallTicks sim.Ticks
}

func newVMU(pe *PE) *VMU {
	numBlocks := pe.numBlocks()
	dim := pe.sys.cfg.SuperblockDim
	numSB := (numBlocks + dim - 1) / dim
	if numSB == 0 {
		numSB = 1
	}
	u := &VMU{
		pe:        pe,
		counters:  make([]int32, numSB),
		tracked:   newBitset(numBlocks),
		inBuffer:  newBitset(numBlocks),
		scanOff:   make([]int32, numSB),
		buffer:    make([]uint64, 0, pe.sys.cfg.ActiveBufferEntries),
		occupancy: stats.Histogram{Width: 4},
	}
	if pe.sys.cfg.OutOfCore {
		u.pageTags = make([]int64, pe.sys.cfg.SSDResidentPages)
		for i := range u.pageTags {
			u.pageTags[i] = -1
		}
	}
	return u
}

func (u *VMU) bufferLen() int  { return len(u.buffer) - u.bufferHead }
func (u *VMU) bufferFree() int { return u.pe.sys.cfg.ActiveBufferEntries - u.bufferLen() }

func (u *VMU) pushBuffer(block uint64) {
	u.buffer = append(u.buffer, block)
	u.occupancy.Observe(uint64(u.bufferLen()))
	if u.pe.sys.cfg.Spill == SpillOverwrite {
		u.inBuffer.set(u.pe.blockIndex(block))
	}
}

func (u *VMU) popBuffer() (uint64, bool) {
	if u.bufferLen() == 0 {
		return 0, false
	}
	b := u.buffer[u.bufferHead]
	u.bufferHead++
	if u.bufferHead > 256 && u.bufferHead*2 >= len(u.buffer) {
		u.buffer = append(u.buffer[:0], u.buffer[u.bufferHead:]...)
		u.bufferHead = 0
	}
	if u.pe.sys.cfg.Spill == SpillOverwrite {
		u.inBuffer.clear(u.pe.blockIndex(b))
	}
	return b, true
}

// onActivate handles a vertex transitioning inactive→active. The MPU calls
// it right after a reduction; the BSP barrier calls it when injecting the
// next epoch's active set.
func (u *VMU) onActivate(v graph.VertexID) {
	if u.pe.sys.cfg.Spill == SpillFIFO {
		if u.bufferFree() > 0 {
			u.pushBuffer(uint64(v))
			u.stats.DirectPushes++
		} else {
			// Append to the off-chip FIFO: one extra write of the
			// entry (vertex address + property).
			u.fifo = append(u.fifo, v)
			u.stats.Spills++
			u.stats.SpillWrites++
			u.stats.MetadataBytes += 8
			if d := len(u.fifo) - u.fifoHead; d > u.stats.FIFOMaxDepth {
				u.stats.FIFOMaxDepth = d
			}
			u.pe.vchan.Access(mem.Request{
				Addr:  u.pe.fifoSpillAddr(),
				Bytes: 16,
				Kind:  mem.WriteAccess,
			})
		}
		return
	}
	// Overwrite policy (Listing 1): the activation lives in the vertex
	// record itself (active_now bit) and the tracker counter for its
	// superblock is bumped immediately — the on-chip metadata update of
	// track_as_active. If the block is already queued in the buffer or
	// already tracked, the update rides along, coalescing across the
	// whole recovery window. The vertex value itself spills with its
	// cache block's write-back; the prefetcher recovers it later. That
	// recovery delay is deliberate — it is what widens NOVA's
	// update-coalescing window beyond any on-chip structure.
	block := u.pe.vertexBlockAddr(v)
	bi := u.pe.blockIndex(block)
	if u.inBuffer.get(bi) || u.tracked.get(bi) {
		return
	}
	u.stats.Spills++
	u.track(bi)
}

func (u *VMU) track(bi int) {
	if u.tracked.get(bi) {
		return
	}
	u.tracked.set(bi)
	u.trackedTotal++
	u.counters[bi/u.pe.sys.cfg.SuperblockDim]++
}

func (u *VMU) untrack(bi int) {
	if !u.tracked.get(bi) {
		return
	}
	u.tracked.clear(bi)
	u.trackedTotal--
	u.counters[bi/u.pe.sys.cfg.SuperblockDim]--
}

// onEvict implements Listing 1's on_evict: when the cache evicts a block
// containing a spilled active vertex, the tracker records its superblock.
func (u *VMU) onEvict(blockAddr uint64, dirty bool) {
	if dirty {
		u.pe.vchan.Access(mem.Request{Addr: blockAddr, Bytes: u.pe.sys.cfg.BlockBytes, Kind: mem.WriteAccess})
	}
	if u.pe.sys.cfg.Spill != SpillOverwrite {
		return
	}
	bi := u.pe.blockIndex(blockAddr)
	if u.inBuffer.get(bi) || u.tracked.get(bi) {
		return
	}
	if u.pe.blockHasActive(blockAddr) {
		u.track(bi)
	}
}

// maybePrefetch implements Listing 1's prefetch: when at least one batch of
// buffer entries is free and active blocks are spilled, read PrefetchBatch
// blocks from the next superblock with a nonzero counter. Blocks that turn
// out inactive are wasted bandwidth (Fig. 10).
func (u *VMU) maybePrefetch() {
	cfg := &u.pe.sys.cfg
	if cfg.Spill == SpillFIFO {
		u.fifoRefill()
		return
	}
	for u.inflightPrefetch == 0 &&
		u.bufferFree()-u.inflightPrefetch >= cfg.PrefetchBatch &&
		u.trackedTotal > 0 {
		sb := u.nextSuperblock()
		if sb < 0 {
			return
		}
		u.pe.sys.tracer.Instant("vmu", "prefetch-batch", u.pe.id, u.pe.eng.Now())
		start := u.scanOff[sb]
		dim := int32(cfg.SuperblockDim)
		numBlocks := int32(u.pe.numBlocks())
		for k := int32(0); k < int32(cfg.PrefetchBatch); k++ {
			bi := int32(sb)*dim + (start+k)%dim
			if bi >= numBlocks {
				continue
			}
			u.issueBlockRead(int(bi))
		}
		u.scanOff[sb] = (start + int32(cfg.PrefetchBatch)) % dim
	}
}

func (u *VMU) nextSuperblock() int {
	n := len(u.counters)
	for i := 0; i < n; i++ {
		sb := (u.sbCursor + i) % n
		if u.counters[sb] > 0 {
			u.sbCursor = sb
			return sb
		}
	}
	return -1
}

func (u *VMU) issueBlockRead(bi int) {
	cfg := &u.pe.sys.cfg
	addr := uint64(bi) * uint64(cfg.BlockBytes)
	u.inflightPrefetch++
	u.stats.PrefetchedBlocks++
	if d := u.pe.ssd; d != nil {
		// Out-of-core tier: the block's SSD page must be resident (or
		// already inbound) before the vertex channel can service the
		// read. A miss pays the full page-in — this is where NOVA's
		// spill/recovery path meets realistic storage latency.
		pageBytes := uint64(d.Config().PageBytes)
		page := addr / pageBytes
		slot := page % uint64(len(u.pageTags))
		if u.pageTags[slot] != int64(page) {
			u.pageTags[slot] = int64(page)
			u.stats.PageIns++
			u.stats.BytesPaged += pageBytes
			now := u.pe.eng.Now()
			complete := d.PageIn(page*pageBytes, int(pageBytes), u.newPageInTask(bi, addr))
			u.stats.IOStallTicks += complete - now
			return
		}
	}
	u.issueVertexRead(bi, addr)
}

// issueVertexRead performs the vertex-channel half of a recovery read,
// once the block is (or has become) DRAM-resident.
func (u *VMU) issueVertexRead(bi int, addr uint64) {
	cfg := &u.pe.sys.cfg
	kind := mem.WastefulRead
	if u.tracked.get(bi) {
		kind = mem.UsefulRead
	}
	u.pe.vchan.Access(mem.Request{
		Addr:  addr,
		Bytes: cfg.BlockBytes,
		Kind:  kind,
		Done:  u.newPrefetchTask(bi, addr),
	})
}

// fifoRefill pops spilled FIFO entries back into the on-chip buffer.
func (u *VMU) fifoRefill() {
	cfg := &u.pe.sys.cfg
	for u.bufferFree()-u.inflightPrefetch >= cfg.PrefetchBatch && u.fifoHead < len(u.fifo) && u.inflightPrefetch == 0 {
		n := cfg.PrefetchBatch
		if avail := len(u.fifo) - u.fifoHead; avail < n {
			n = avail
		}
		for i := 0; i < n; i++ {
			v := u.fifo[u.fifoHead]
			u.fifoHead++
			u.inflightPrefetch++
			u.pe.vchan.Access(mem.Request{
				Addr:  u.pe.fifoSpillAddr(),
				Bytes: 16,
				Kind:  mem.UsefulRead,
				Done:  u.newFIFOTask(v),
			})
		}
		if u.fifoHead == len(u.fifo) {
			u.fifo = u.fifo[:0]
			u.fifoHead = 0
		}
	}
}
