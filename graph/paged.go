package graph

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// PartitionedCSR pages a partitioned container (csrpart.go) in one vertex
// interval at a time instead of loading the whole graph: Acquire decodes
// and CRC-verifies a single partition's row and edge slabs on demand and
// pins it resident; Release unpins it; an LRU drops the least recently
// used unpinned partition once more than MaxResident are resident. On
// platforms with mmap the slabs decode straight out of the kernel mapping
// (the page cache is the read path); elsewhere they stream through
// explicit chunked ReadAt calls — never a whole-file read.
//
// This is the host-side half of the out-of-core tier: it bounds the
// process's resident graph memory, while the simulated I/O cost of the
// same access pattern lives in the engines (internal/mem's SSD tier and
// internal/extmem). Paging is invisible to simulation results by
// construction — Materialize returns a graph bit-identical to
// ReadCSRFile's at every MaxResident setting; only the PagedStats differ.
//
// The type is safe for concurrent use; loads hold the lock, trading
// parallel page-ins for simplicity (the design point is bounding memory,
// not disk throughput).
type PartitionedCSR struct {
	f     *os.File
	data  []byte // live mapping when non-nil; otherwise the ReadAt path
	unmap func([]byte) error
	l     *csrLayout
	name  string

	mu          sync.Mutex
	resident    map[int]*GraphPart
	maxResident int
	seq         uint64
	stats       PagedStats
	closed      bool
}

// PagedStats count the pager's traffic. They are host-side observability
// (run-to-run timing-dependent in concurrent use), not simulation state.
type PagedStats struct {
	// Loads counts partitions decoded from the container; Hits counts
	// Acquire calls satisfied by an already-resident partition.
	Loads uint64
	Hits  uint64
	// Evictions counts resident partitions dropped to respect MaxResident.
	Evictions uint64
	// BytesPaged totals the container bytes read and verified by Loads.
	BytesPaged uint64
}

// GraphPart is one resident partition: the vertex interval
// [VFirst, VFirst+VCount) with its row pointers and edges. RowPtr holds
// absolute (global) edge indices, so OutEdges indexes Dst/Weight after
// subtracting EdgeBase. The slices are owned by the pager and valid until
// the partition is released and evicted.
type GraphPart struct {
	VFirst   int
	VCount   int
	EdgeBase int64
	RowPtr   []int64 // VCount+1 absolute row pointers
	Dst      []VertexID
	Weight   []uint32

	pins int
	seq  uint64
}

// OutEdges returns v's destination and weight slices. v must lie inside
// the partition's interval.
func (p *GraphPart) OutEdges(v VertexID) ([]VertexID, []uint32) {
	i := int(v) - p.VFirst
	lo := p.RowPtr[i] - p.EdgeBase
	hi := p.RowPtr[i+1] - p.EdgeBase
	return p.Dst[lo:hi], p.Weight[lo:hi]
}

// OpenPartitionedCSR opens the partitioned container at path for
// on-demand paging. maxResident bounds the unpinned+pinned partitions
// kept in memory (0 means unlimited — every partition stays resident once
// touched). Flat containers are rejected: ReadCSRFile and
// OpenCSRFileMapped already serve them.
func OpenPartitionedCSR(path string, maxResident int) (pc *PartitionedCSR, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	hdr := make([]byte, csrFileHeaderSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return nil, fmt.Errorf("%w: header short read: %w", ErrCorrupt, err)
	}
	l, err := parseHeader(hdr)
	if err != nil {
		return nil, err
	}
	if !l.info.Partitioned {
		return nil, fmt.Errorf("graph: %s is a flat container; paging needs the partitioned layout (graphgen -partition-edges)", path)
	}
	if err := l.readTable(&slabSource{ra: f}); err != nil {
		return nil, err
	}
	pc = &PartitionedCSR{
		f:           f,
		l:           l,
		name:        path,
		resident:    make(map[int]*GraphPart),
		maxResident: maxResident,
	}
	// Reuse the mmap machinery when it yields a real mapping; the
	// non-unix fallback reads the whole file, which is exactly what a
	// pager must not hold on to, so it is released and ReadAt takes over.
	if data, unmap, backed, merr := mapFile(path); merr == nil {
		if backed && uint64(len(data)) >= l.secs[1].off+l.secs[1].length {
			pc.data = data
			pc.unmap = unmap
		} else {
			unmap(data)
		}
	}
	return pc, nil
}

// Info describes the underlying container.
func (pc *PartitionedCSR) Info() CSRFileInfo { return pc.l.info }

// NumPartitions returns the partition count.
func (pc *PartitionedCSR) NumPartitions() int { return len(pc.l.slabs) }

// Mapped reports whether partition loads decode from a live memory
// mapping rather than explicit reads.
func (pc *PartitionedCSR) Mapped() bool { return pc.data != nil }

// PartitionSpan returns partition i's vertex interval and edge count.
func (pc *PartitionedCSR) PartitionSpan(i int) (vFirst, vCount int, edges int64) {
	pt := pc.l.slabs[i]
	return pt.vFirst, pt.vCount, pt.edges
}

// PartitionFor returns the index of the partition containing v.
func (pc *PartitionedCSR) PartitionFor(v VertexID) int {
	lo, hi := 0, len(pc.l.slabs)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if int(v) >= pc.l.slabs[mid].vFirst {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Stats returns a snapshot of the pager counters.
func (pc *PartitionedCSR) Stats() PagedStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.stats
}

// ResidentPartitions returns how many partitions are currently in memory.
func (pc *PartitionedCSR) ResidentPartitions() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.resident)
}

// Acquire pins partition i resident and returns it, loading and verifying
// it from the container if needed. Every Acquire must be paired with a
// Release; pinned partitions are never evicted, so over-subscribing pins
// beyond MaxResident is allowed and simply holds more memory.
func (pc *PartitionedCSR) Acquire(i int) (*GraphPart, error) {
	if i < 0 || i >= len(pc.l.slabs) {
		return nil, fmt.Errorf("graph: partition %d out of range [0,%d)", i, len(pc.l.slabs))
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if err := pc.closedErrLocked(); err != nil {
		return nil, err
	}
	pc.seq++
	if p, ok := pc.resident[i]; ok {
		pc.stats.Hits++
		p.pins++
		p.seq = pc.seq
		return p, nil
	}
	p, err := pc.loadLocked(i)
	if err != nil {
		return nil, err
	}
	p.pins = 1
	p.seq = pc.seq
	pc.resident[i] = p
	pc.evictLocked()
	return p, nil
}

// closedErrLocked refuses work once Close has run.
func (pc *PartitionedCSR) closedErrLocked() error {
	if pc.closed {
		return fmt.Errorf("graph: %s: pager closed", pc.name)
	}
	return nil
}

// Release unpins a partition returned by Acquire.
func (pc *PartitionedCSR) Release(p *GraphPart) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if p.pins > 0 {
		p.pins--
	}
}

// evictLocked drops least-recently-used unpinned partitions until the
// resident set fits MaxResident (pinned partitions cannot be dropped, so
// the set may stay over budget while pins are outstanding).
func (pc *PartitionedCSR) evictLocked() {
	for pc.maxResident > 0 && len(pc.resident) > pc.maxResident {
		victim, vseq := -1, uint64(0)
		for i, p := range pc.resident {
			if p.pins == 0 && (victim < 0 || p.seq < vseq) {
				victim, vseq = i, p.seq
			}
		}
		if victim < 0 {
			return
		}
		delete(pc.resident, victim)
		pc.stats.Evictions++
	}
}

// loadLocked decodes and verifies partition i from the container.
func (pc *PartitionedCSR) loadLocked(i int) (*GraphPart, error) {
	pt := pc.l.slabs[i]
	p := &GraphPart{
		VFirst:   pt.vFirst,
		VCount:   pt.vCount,
		EdgeBase: pt.edgeBase,
		RowPtr:   make([]int64, pt.vCount+1),
		Dst:      make([]VertexID, pt.edges),
		Weight:   make([]uint32, pt.edges),
	}
	if err := pc.l.readSlab(pc.sourceLocked(), i, slabView{rows: p.RowPtr, dst: p.Dst, wgt: p.Weight}); err != nil {
		return nil, err
	}
	pc.stats.Loads++
	pc.stats.BytesPaged += pt.rowLen() + pt.edgeLen()
	return p, nil
}

// sourceLocked returns the reader loads go through: the live mapping, or
// chunked ReadAt calls.
func (pc *PartitionedCSR) sourceLocked() *slabSource {
	if pc.data != nil {
		return &slabSource{data: pc.data}
	}
	return &slabSource{ra: pc.f}
}

// Materialize assembles the whole graph by paging every partition through
// the cache in order. It first checks the whole-payload CRC in one bounded
// pass, the check Acquire leaves to the full readers, so it accepts and
// rejects exactly what ReadCSRFile does. The result is bit-identical to
// ReadCSRFile on the same container at every MaxResident setting — paging
// affects PagedStats, never graph content.
func (pc *PartitionedCSR) Materialize() (*CSR, error) {
	pc.mu.Lock()
	err := pc.closedErrLocked()
	if err == nil {
		err = pc.l.verifyPayload(pc.sourceLocked())
	}
	pc.mu.Unlock()
	if err != nil {
		return nil, err
	}
	g := &CSR{
		RowPtr: make([]int64, pc.l.info.NumVertices+1),
		Dst:    make([]VertexID, pc.l.info.NumEdges),
		Weight: make([]uint32, pc.l.info.NumEdges),
		Name:   pc.name,
	}
	for i := range pc.l.slabs {
		p, err := pc.Acquire(i)
		if err != nil {
			return nil, err
		}
		copy(g.RowPtr[p.VFirst:], p.RowPtr)
		copy(g.Dst[p.EdgeBase:], p.Dst)
		copy(g.Weight[p.EdgeBase:], p.Weight)
		pc.Release(p)
	}
	return g, nil
}

// Close releases the mapping and file. The caller must have released all
// acquired partitions; resident data is dropped. Close is idempotent.
func (pc *PartitionedCSR) Close() error {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.closed {
		return nil
	}
	pc.closed = true
	pc.resident = nil
	var err error
	if pc.data != nil {
		err = pc.unmap(pc.data)
		pc.data = nil
	}
	if cerr := pc.f.Close(); err == nil {
		err = cerr
	}
	return err
}
