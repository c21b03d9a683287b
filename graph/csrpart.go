package graph

import (
	"encoding/binary"
	"fmt"
)

// Partitioned container layout (header flag bit 0) — the on-disk format of
// the out-of-core tier. A flat container checksums its two sections as
// wholes, so verifying any byte means reading everything; graphs larger
// than RAM need the opposite: load one vertex interval's rows and edges,
// verify just those bytes, and touch nothing else. The partitioned layout
// restructures the same payload for that access pattern:
//
//	header   as csrfile.go, with the partitioned flag set;
//	         section 0 = partition table, section 1 = payload
//	table    partition count u64, then per partition
//	         {vFirst u64, vCount u64, edges u64, rowOff u64, edgeOff u64,
//	          rowCRC u32, edgeCRC u32}
//	payload  per partition, contiguous and in order:
//	         rowptr slab  (vCount+1) × u64   absolute row pointers
//	         edge slab    edges × {dst u32, weight u32}
//
// Row pointers stay absolute (global edge indices) and interval boundaries
// are duplicated — partition k's last row pointer is partition k+1's first
// — so a slab decodes without any context beyond the table entry, at the
// cost of (P-1)×8 bytes. Section 0's CRC covers the table, section 1's the
// whole payload; each slab pair additionally carries its own CRC32C, which
// is what lets PartitionedCSR page in one interval and verify it in
// isolation. Every field of the table is cross-validated against the
// header and against its neighbors before it drives an allocation or a
// read offset.

const csrPartEntryBytes = 48

// csrPartition is one slab: a decoded partition-table entry, or a flat
// file's whole payload.
type csrPartition struct {
	vFirst   int
	vCount   int
	edgeBase int64 // global index of the slab's first edge (not stored)
	edges    int64
	// rowOff / edgeOff are absolute file offsets of the two slabs.
	rowOff  uint64
	edgeOff uint64
	rowCRC  uint32
	edgeCRC uint32
}

func (p csrPartition) rowLen() uint64  { return uint64(p.vCount+1) * 8 }
func (p csrPartition) edgeLen() uint64 { return uint64(p.edges) * csrEdgeRecBytes }

// partitionBoundaries splits [0, len(rowPtr)-1) into contiguous vertex
// intervals of at most targetEdges edges each (always at least one vertex,
// so a hub denser than the budget still gets a partition). The returned
// slice holds P+1 boundaries with bounds[0] == 0.
func partitionBoundaries(rowPtr []int64, targetEdges int64) []int {
	n := len(rowPtr) - 1
	bounds := []int{0}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && rowPtr[hi+1]-rowPtr[lo] <= targetEdges {
			hi++
		}
		bounds = append(bounds, hi)
		lo = hi
	}
	return bounds
}

// partitionTableBytes serializes the partition table section.
func partitionTableBytes(parts []csrPartition) []byte {
	buf := make([]byte, 8+len(parts)*csrPartEntryBytes)
	binary.LittleEndian.PutUint64(buf, uint64(len(parts)))
	p := 8
	for _, pt := range parts {
		binary.LittleEndian.PutUint64(buf[p:], uint64(pt.vFirst))
		binary.LittleEndian.PutUint64(buf[p+8:], uint64(pt.vCount))
		binary.LittleEndian.PutUint64(buf[p+16:], uint64(pt.edges))
		binary.LittleEndian.PutUint64(buf[p+24:], pt.rowOff)
		binary.LittleEndian.PutUint64(buf[p+32:], pt.edgeOff)
		binary.LittleEndian.PutUint32(buf[p+40:], pt.rowCRC)
		binary.LittleEndian.PutUint32(buf[p+44:], pt.edgeCRC)
		p += csrPartEntryBytes
	}
	return buf
}

// parsePartitionTable validates the raw table section against the header
// geometry: full coverage of [0, V) by non-empty intervals in order, edge
// counts summing to E, and slab offsets exactly tiling the payload
// section. The caller has already verified the section CRC; this guards
// against a crafted table whose CRC is self-consistent.
func parsePartitionTable(buf []byte, info CSRFileInfo, payloadOff uint64) ([]csrPartition, error) {
	if len(buf) < 8 {
		return nil, fmt.Errorf("%w: partition table truncated", ErrCorrupt)
	}
	count := binary.LittleEndian.Uint64(buf)
	if count != uint64(info.NumPartitions) || len(buf) != 8+int(count)*csrPartEntryBytes {
		return nil, fmt.Errorf("%w: partition count %d inconsistent with header (%d)", ErrCorrupt, count, info.NumPartitions)
	}
	parts := make([]csrPartition, count)
	nextV, nextEdge, nextOff := uint64(0), uint64(0), payloadOff
	for i := range parts {
		p := 8 + i*csrPartEntryBytes
		pt := csrPartition{
			vFirst:   int(binary.LittleEndian.Uint64(buf[p:])),
			vCount:   int(binary.LittleEndian.Uint64(buf[p+8:])),
			edges:    int64(binary.LittleEndian.Uint64(buf[p+16:])),
			rowOff:   binary.LittleEndian.Uint64(buf[p+24:]),
			edgeOff:  binary.LittleEndian.Uint64(buf[p+32:]),
			rowCRC:   binary.LittleEndian.Uint32(buf[p+40:]),
			edgeCRC:  binary.LittleEndian.Uint32(buf[p+44:]),
			edgeBase: int64(nextEdge),
		}
		if uint64(pt.vFirst) != nextV || pt.vCount < 1 || pt.edges < 0 ||
			uint64(pt.vFirst)+uint64(pt.vCount) > uint64(info.NumVertices) {
			return nil, fmt.Errorf("%w: partition %d interval [%d,+%d) out of order", ErrCorrupt, i, pt.vFirst, pt.vCount)
		}
		// Bounding each count, not just the sum, keeps a crafted table from
		// wrapping the sum around to |E|.
		if uint64(pt.edges) > uint64(info.NumEdges)-nextEdge {
			return nil, fmt.Errorf("%w: partition %d holds %d edges, past E=%d", ErrCorrupt, i, pt.edges, info.NumEdges)
		}
		if pt.rowOff != nextOff || pt.edgeOff != pt.rowOff+pt.rowLen() {
			return nil, fmt.Errorf("%w: partition %d slab offsets inconsistent", ErrCorrupt, i)
		}
		nextV += uint64(pt.vCount)
		nextEdge += uint64(pt.edges)
		nextOff = pt.edgeOff + pt.edgeLen()
		parts[i] = pt
	}
	if nextV != uint64(info.NumVertices) || nextEdge != uint64(info.NumEdges) {
		return nil, fmt.Errorf("%w: partitions cover V=%d E=%d, header says V=%d E=%d",
			ErrCorrupt, nextV, nextEdge, info.NumVertices, info.NumEdges)
	}
	return parts, nil
}

// DefaultPartitionEdges is the partition granularity used when a
// partitioned write is requested without an explicit target: 1Mi edges
// (8 MiB of edge records) per partition.
const DefaultPartitionEdges = 1 << 20

// WritePartitionedCSRFile serializes g into the partitioned container at
// path, with at most targetEdges edges per partition (DefaultPartitionEdges
// when <= 0). The payload bytes are the same row pointers and edge records
// a flat write produces, restructured into independently checksummed
// vertex-interval slabs.
func WritePartitionedCSRFile(path string, g *CSR, targetEdges int64) (CSRFileInfo, error) {
	if targetEdges <= 0 {
		targetEdges = DefaultPartitionEdges
	}
	return writeContainer(path, g.RowPtr, partitionBoundaries(g.RowPtr, targetEdges), true, csrEdges(g))
}
