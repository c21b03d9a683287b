package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The NVC1 codec. Both container layouts are one list of vertex-interval
// slabs, each a row-pointer slab ((vCount+1) × u64, absolute) followed by
// an edge slab (edges × {dst u32, weight u32}), with one CRC32C per slab
// half. A partitioned file lists its slabs in the partition table. A flat
// file is the one-slab case: its payload is byte for byte a one-partition
// payload without the table, and its two section CRCs are that slab's
// CRCs. So one writer (writeContainer) produces every file and one decoder
// (readSlab) owns every row-pointer and edge-destination check, whichever
// entry point a file comes through.

// csrLayout is a validated header plus the container's slab list.
type csrLayout struct {
	info  CSRFileInfo
	secs  [csrFileSections]csrSection
	slabs []csrPartition // nil for a partitioned file until readTable
}

// slabName labels slab i's "row" or "edge" half in error messages: a flat
// file's one slab is its two sections.
func (l *csrLayout) slabName(i int, half string) string {
	switch {
	case l.info.Partitioned:
		return fmt.Sprintf("partition %d %s slab", i, half)
	case half == "row":
		return "row-pointer section"
	default:
		return "edge section"
	}
}

// slabWriter streams a container payload, keeping the CRC of the slab
// half being written and, for the partitioned layout, of the whole
// payload.
type slabWriter struct {
	w           *bufio.Writer
	partitioned bool
	off         uint64  // file offset of the next payload byte
	crc         *uint32 // the current slab half's checksum
	payloadCRC  uint32
	buf         []byte // record encoding scratch
}

func (sw *slabWriter) write(p []byte) error {
	*sw.crc = crc32.Update(*sw.crc, crcTable, p)
	if sw.partitioned {
		sw.payloadCRC = crc32.Update(sw.payloadCRC, crcTable, p)
	}
	sw.off += uint64(len(p))
	_, err := sw.w.Write(p)
	return err
}

// records writes count 8-byte little-endian records rec(0..count-1),
// batched through a 64 KiB buffer.
func (sw *slabWriter) records(count int64, rec func(k int64) uint64) error {
	for k := int64(0); k < count; k++ {
		sw.buf = binary.LittleEndian.AppendUint64(sw.buf, rec(k))
		if len(sw.buf) == cap(sw.buf) || k == count-1 {
			if err := sw.write(sw.buf); err != nil {
				return err
			}
			sw.buf = sw.buf[:0]
		}
	}
	return nil
}

// csrEdges feeds writeContainer the edge records of an in-memory graph.
// An edge record read as a little-endian u64 is dst | weight<<32.
func csrEdges(g *CSR) func(sw *slabWriter, lo, hi int) error {
	return func(sw *slabWriter, lo, hi int) error {
		base := g.RowPtr[lo]
		return sw.records(g.RowPtr[hi]-base, func(k int64) uint64 {
			return uint64(g.Dst[base+k]) | uint64(g.Weight[base+k])<<32
		})
	}
}

// writeContainer is the one container writer. It writes the slabs
// [bounds[i], bounds[i+1]) with row pointers from rowPtr and edge records
// from edges, which must write slab [lo, hi)'s records to sw in row-pointer
// order. A flat file (partitioned false) takes bounds {0, |V|}. Memory
// beyond rowPtr is the write buffer plus whatever edges holds.
func writeContainer(path string, rowPtr []int64, bounds []int, partitioned bool, edges func(sw *slabWriter, lo, hi int) error) (info CSRFileInfo, err error) {
	f, err := os.Create(path)
	if err != nil {
		return info, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	slabs := make([]csrPartition, len(bounds)-1)
	payloadOff := uint64(csrFileHeaderSize)
	if partitioned {
		payloadOff += 8 + uint64(len(slabs))*csrPartEntryBytes
	}
	// Header and table slots first; rewritten once the checksums are known.
	sw := &slabWriter{w: bufio.NewWriterSize(f, 1<<20), partitioned: partitioned, off: payloadOff, buf: make([]byte, 0, 64<<10)}
	if _, err := sw.w.Write(make([]byte, payloadOff)); err != nil {
		return info, err
	}
	for i := range slabs {
		lo, hi := bounds[i], bounds[i+1]
		pt := &slabs[i]
		*pt = csrPartition{vFirst: lo, vCount: hi - lo, edges: rowPtr[hi] - rowPtr[lo], rowOff: sw.off}
		sw.crc = &pt.rowCRC
		if err := sw.records(int64(hi-lo+1), func(k int64) uint64 { return uint64(rowPtr[int64(lo)+k]) }); err != nil {
			return info, err
		}
		pt.edgeOff = sw.off
		sw.crc = &pt.edgeCRC
		if err := edges(sw, lo, hi); err != nil {
			return info, err
		}
	}
	if err := sw.w.Flush(); err != nil {
		return info, err
	}

	n, m := len(rowPtr)-1, rowPtr[len(rowPtr)-1]
	var flags uint16
	var secs [csrFileSections]csrSection
	if partitioned {
		flags = csrFlagPartitioned
		table := partitionTableBytes(slabs)
		if _, err := f.WriteAt(table, csrFileHeaderSize); err != nil {
			return info, err
		}
		secs = [csrFileSections]csrSection{
			{off: csrFileHeaderSize, length: uint64(len(table)), crc: crc32.Checksum(table, crcTable)},
			{off: payloadOff, length: sw.off - payloadOff, crc: sw.payloadCRC},
		}
	} else {
		s := slabs[0]
		secs = [csrFileSections]csrSection{
			{off: s.rowOff, length: s.rowLen(), crc: s.rowCRC},
			{off: s.edgeOff, length: s.edgeLen(), crc: s.edgeCRC},
		}
	}
	hdr := headerBytes(n, m, flags, secs)
	if _, err := f.WriteAt(hdr, 0); err != nil {
		return info, err
	}
	info = CSRFileInfo{
		Version:     CSRFileVersion,
		NumVertices: n,
		NumEdges:    m,
		RowPtrBytes: int64(sw.off-payloadOff) - m*csrEdgeRecBytes,
		EdgeBytes:   m * csrEdgeRecBytes,
		Partitioned: partitioned,
		ContentHash: binary.LittleEndian.Uint32(hdr[csrFileHeaderSize-4:]),
	}
	if partitioned {
		info.NumPartitions = len(slabs)
	}
	return info, nil
}

// slabSource reads container byte ranges for the decoder: slicing a whole
// in-memory image (the mapping), by positioned reads, or from a sequential
// stream, whose ranges must then be requested in file order.
type slabSource struct {
	data []byte
	ra   io.ReaderAt
	r    io.Reader
	buf  []byte
}

// verify hands the bytes [off, off+n) to fn (when non-nil) in pieces of
// whole 8-byte records, at most 1 MiB unless they come from the image, and
// checks their CRC32C against want; name labels the range in errors. It is
// the one checksum check of every read path.
func (s *slabSource) verify(name string, off, n uint64, want uint32, fn func([]byte)) error {
	var crc uint32
	take := func(p []byte) {
		crc = crc32.Update(crc, crcTable, p)
		if fn != nil {
			fn(p)
		}
	}
	if s.data != nil {
		// The caller has checked the image against the section table.
		take(s.data[off : off+n])
	} else {
		if size := min(n, 1<<20); uint64(len(s.buf)) < size {
			s.buf = make([]byte, size)
		}
		for done := uint64(0); done < n; {
			p := s.buf[:min(n-done, uint64(len(s.buf)))]
			var err error
			if s.r != nil {
				_, err = io.ReadFull(s.r, p)
			} else {
				_, err = s.ra.ReadAt(p, int64(off+done))
			}
			if err != nil {
				return fmt.Errorf("%w: %s truncated: %w", ErrCorrupt, name, err)
			}
			take(p)
			done += uint64(len(p))
		}
	}
	if crc != want {
		return fmt.Errorf("%w: %s checksum mismatch", ErrCorrupt, name)
	}
	return nil
}

// readTable reads, verifies and parses a partitioned file's table into
// l.slabs; a flat file's one slab comes from its header.
func (l *csrLayout) readTable(src *slabSource) error {
	if !l.info.Partitioned {
		return nil
	}
	table := make([]byte, 0, l.secs[0].length)
	if err := src.verify("partition table", l.secs[0].off, l.secs[0].length, l.secs[0].crc, func(p []byte) {
		table = append(table, p...)
	}); err != nil {
		return err
	}
	var err error
	l.slabs, err = parsePartitionTable(table, l.info, l.secs[1].off)
	return err
}

// verifyPayload checks a partitioned file's whole-payload CRC in one
// bounded pass; a flat file's payload CRCs are its slab CRCs.
func (l *csrLayout) verifyPayload(src *slabSource) error {
	if !l.info.Partitioned {
		return nil
	}
	return src.verify("payload section", l.secs[1].off, l.secs[1].length, l.secs[1].crc, nil)
}

// slabView is where one decoded slab lands: its vCount+1 row pointers and
// its edges' destinations and weights.
type slabView struct {
	rows []int64
	dst  []VertexID
	wgt  []uint32
	// rowsMapped marks rows that already alias the slab's row bytes (the
	// flat mmap path): they are verified and checked in place.
	rowsMapped bool
}

// readSlab is the one slab decoder: it reads slab i's two halves from src
// into s, verifying each against its CRC, then checks what the CRCs cannot
// vouch for — that a crafted file is well-formed: row pointers monotone,
// starting at the slab's first edge and ending at its last, and every
// destination a vertex.
func (l *csrLayout) readSlab(src *slabSource, i int, s slabView) error {
	pt := l.slabs[i]
	var decodeRows func([]byte)
	if !s.rowsMapped {
		k := 0
		decodeRows = func(p []byte) {
			rows := s.rows[k : k+len(p)/8]
			for j := range rows {
				rows[j] = int64(binary.LittleEndian.Uint64(p[j*8:]))
			}
			k += len(rows)
		}
	}
	if err := src.verify(l.slabName(i, "row"), pt.rowOff, pt.rowLen(), pt.rowCRC, decodeRows); err != nil {
		return err
	}
	prev := pt.edgeBase
	for k, v := range s.rows {
		if k == 0 && v != pt.edgeBase {
			if !l.info.Partitioned {
				return fmt.Errorf("%w: row pointers start at %d, want 0", ErrCorrupt, v)
			}
			return fmt.Errorf("%w: partition %d starts at edge %d, want %d", ErrCorrupt, i, v, pt.edgeBase)
		}
		if v < prev || v > l.info.NumEdges {
			return fmt.Errorf("%w: row pointer %d out of order (%d after %d)", ErrCorrupt, pt.vFirst+k, v, prev)
		}
		prev = v
	}
	if end := pt.edgeBase + pt.edges; prev != end {
		if !l.info.Partitioned {
			return fmt.Errorf("%w: row pointers end at %d, want %d", ErrCorrupt, prev, end)
		}
		return fmt.Errorf("%w: partition %d rows end at edge %d, table says %d", ErrCorrupt, i, prev, end)
	}

	// The first bad destination is noted while decoding and reported only
	// once the checksum holds, so a damaged slab reads as damaged.
	nv, k, bad := int64(l.info.NumVertices), 0, -1
	if err := src.verify(l.slabName(i, "edge"), pt.edgeOff, pt.edgeLen(), pt.edgeCRC, func(p []byte) {
		dst, wgt := s.dst[k:k+len(p)/csrEdgeRecBytes], s.wgt[k:k+len(p)/csrEdgeRecBytes]
		for j := range dst {
			d := binary.LittleEndian.Uint32(p[j*csrEdgeRecBytes:])
			if int64(d) >= nv && bad < 0 {
				bad = k + j
			}
			dst[j] = VertexID(d)
			wgt[j] = binary.LittleEndian.Uint32(p[j*csrEdgeRecBytes+4:])
		}
		k += len(dst)
	}); err != nil {
		return err
	}
	if bad >= 0 {
		return fmt.Errorf("%w: edge %d: destination %d out of range", ErrCorrupt, pt.edgeBase+int64(bad), s.dst[bad])
	}
	return nil
}

// decode reads every slab from src into a new graph named name. rowPtr,
// when non-nil, is a row-pointer array already aliasing a flat file's row
// section.
func (l *csrLayout) decode(name string, src *slabSource, rowPtr []int64) (*CSR, error) {
	g := &CSR{
		RowPtr: rowPtr,
		Dst:    make([]VertexID, l.info.NumEdges),
		Weight: make([]uint32, l.info.NumEdges),
		Name:   name,
	}
	if rowPtr == nil {
		g.RowPtr = make([]int64, l.info.NumVertices+1)
	}
	for i, pt := range l.slabs {
		end := pt.edgeBase + pt.edges
		if err := l.readSlab(src, i, slabView{
			rows:       g.RowPtr[pt.vFirst : pt.vFirst+pt.vCount+1],
			dst:        g.Dst[pt.edgeBase:end],
			wgt:        g.Weight[pt.edgeBase:end],
			rowsMapped: rowPtr != nil,
		}); err != nil {
			return nil, err
		}
	}
	return g, nil
}
