package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The NVC1 codec: one writer (writeContainer) produces every container,
// and one decoder (csrLayout.decode) owns every row-pointer and
// edge-destination check, whichever entry point a file comes through.

// csrLayout is a validated header: the container's dimensions and its two
// sections, the row pointers and the edge records.
type csrLayout struct {
	info CSRFileInfo
	secs [csrFileSections]csrSection
}

// sectionWriter streams a container section, keeping its CRC32C.
type sectionWriter struct {
	w   *bufio.Writer
	crc uint32
	buf []byte // record encoding scratch
}

func (sw *sectionWriter) write(p []byte) error {
	sw.crc = crc32.Update(sw.crc, crcTable, p)
	_, err := sw.w.Write(p)
	return err
}

// records writes count 8-byte little-endian records rec(0..count-1),
// batched through a 64 KiB buffer.
func (sw *sectionWriter) records(count int64, rec func(k int64) uint64) error {
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
func csrEdges(g *CSR) func(sw *sectionWriter) error {
	return func(sw *sectionWriter) error {
		return sw.records(g.NumEdges(), func(k int64) uint64 {
			return uint64(g.Dst[k]) | uint64(g.Weight[k])<<32
		})
	}
}

// writeContainer is the one container writer. It writes the row pointers
// rowPtr, then the edge section, which edges must write to sw in
// row-pointer order. Memory beyond rowPtr is the write buffer plus
// whatever edges holds.
func writeContainer(path string, rowPtr []int64, edges func(sw *sectionWriter) error) (info CSRFileInfo, err error) {
	f, err := os.Create(path)
	if err != nil {
		return info, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	n, m := len(rowPtr)-1, rowPtr[len(rowPtr)-1]
	info = fileInfo(n, m, 0)
	// The header slot first; rewritten once the checksums are known.
	sw := &sectionWriter{w: bufio.NewWriterSize(f, 1<<20), buf: make([]byte, 0, 64<<10)}
	if _, err := sw.w.Write(make([]byte, csrFileHeaderSize)); err != nil {
		return info, err
	}
	if err := sw.records(int64(n+1), func(k int64) uint64 { return uint64(rowPtr[k]) }); err != nil {
		return info, err
	}
	rowCRC := sw.crc
	sw.crc = 0
	if err := edges(sw); err != nil {
		return info, err
	}
	if err := sw.w.Flush(); err != nil {
		return info, err
	}
	hdr := headerBytes(n, m, [csrFileSections]csrSection{
		{off: csrFileHeaderSize, length: uint64(info.RowPtrBytes), crc: rowCRC},
		{off: csrFileHeaderSize + uint64(info.RowPtrBytes), length: uint64(info.EdgeBytes), crc: sw.crc},
	})
	if _, err := f.WriteAt(hdr, 0); err != nil {
		return info, err
	}
	info.ContentHash = binary.LittleEndian.Uint32(hdr[csrFileHeaderSize-4:])
	return info, nil
}

// sectionSource reads container sections for the decoder: by slicing a
// whole in-memory image (the mapping), or from a sequential stream, whose
// sections must then be requested in file order.
type sectionSource struct {
	data []byte
	r    io.Reader
	buf  []byte
}

// verify hands section sec's bytes to fn (when non-nil) in pieces of whole
// 8-byte records, at most 1 MiB unless they come from the image, and
// checks their CRC32C against the section's; name labels the section in
// errors. It is the one checksum check of every read path.
func (s *sectionSource) verify(name string, sec csrSection, fn func([]byte)) error {
	var crc uint32
	take := func(p []byte) {
		crc = crc32.Update(crc, crcTable, p)
		if fn != nil {
			fn(p)
		}
	}
	if s.data != nil {
		// The caller has checked the image against the section table.
		take(s.data[sec.off : sec.off+sec.length])
	} else {
		n := sec.length
		if size := min(n, 1<<20); uint64(len(s.buf)) < size {
			s.buf = make([]byte, size)
		}
		for done := uint64(0); done < n; {
			p := s.buf[:min(n-done, uint64(len(s.buf)))]
			if _, err := io.ReadFull(s.r, p); err != nil {
				return fmt.Errorf("%w: %s truncated: %w", ErrCorrupt, name, err)
			}
			take(p)
			done += uint64(len(p))
		}
	}
	if crc != sec.crc {
		return fmt.Errorf("%w: %s checksum mismatch", ErrCorrupt, name)
	}
	return nil
}

// decode is the one decoder: it reads both sections from src into a new
// graph named name, verifying each against its CRC, then checks what the
// CRCs cannot vouch for — that a crafted file is well-formed: row pointers
// monotone, starting at 0 and ending at |E|, and every destination a
// vertex. rowPtr, when non-nil, already aliases the row section of the
// image src slices; it is verified and checked in place.
func (l *csrLayout) decode(name string, src *sectionSource, rowPtr []int64) (*CSR, error) {
	n, m := l.info.NumVertices, l.info.NumEdges
	g := &CSR{
		RowPtr: rowPtr,
		Dst:    make([]VertexID, m),
		Weight: make([]uint32, m),
		Name:   name,
	}
	var decodeRows func([]byte)
	if rowPtr == nil {
		g.RowPtr = make([]int64, n+1)
		k := 0
		decodeRows = func(p []byte) {
			rows := g.RowPtr[k : k+len(p)/8]
			for j := range rows {
				rows[j] = int64(binary.LittleEndian.Uint64(p[j*8:]))
			}
			k += len(rows)
		}
	}
	if err := src.verify("row-pointer section", l.secs[0], decodeRows); err != nil {
		return nil, err
	}
	prev := int64(0)
	for k, v := range g.RowPtr {
		if k == 0 && v != 0 {
			return nil, fmt.Errorf("%w: row pointers start at %d, want 0", ErrCorrupt, v)
		}
		if v < prev || v > m {
			return nil, fmt.Errorf("%w: row pointer %d out of order (%d after %d)", ErrCorrupt, k, v, prev)
		}
		prev = v
	}
	if prev != m {
		return nil, fmt.Errorf("%w: row pointers end at %d, want %d", ErrCorrupt, prev, m)
	}

	// The first bad destination is noted while decoding and reported only
	// once the checksum holds, so a damaged section reads as damaged.
	k, bad := 0, -1
	if err := src.verify("edge section", l.secs[1], func(p []byte) {
		dst, wgt := g.Dst[k:k+len(p)/csrEdgeRecBytes], g.Weight[k:k+len(p)/csrEdgeRecBytes]
		for j := range dst {
			d := binary.LittleEndian.Uint32(p[j*csrEdgeRecBytes:])
			if int64(d) >= int64(n) && bad < 0 {
				bad = k + j
			}
			dst[j] = VertexID(d)
			wgt[j] = binary.LittleEndian.Uint32(p[j*csrEdgeRecBytes+4:])
		}
		k += len(dst)
	}); err != nil {
		return nil, err
	}
	if bad >= 0 {
		return nil, fmt.Errorf("%w: edge %d: destination %d out of range", ErrCorrupt, bad, g.Dst[bad])
	}
	return g, nil
}
