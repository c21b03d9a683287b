package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// ErrCorrupt is the sentinel wrapped by every corruption and truncation
// error the container reader reports — a damaged or tampered file is
// errors.Is(err, ErrCorrupt); I/O failures (missing path, permissions)
// are not. Readers never panic on corrupt input: every section is bounds-
// and checksum-validated before its payload drives allocation or indexing.
var ErrCorrupt = errors.New("graph: corrupt csr container")

// Versioned binary CSR container — the on-disk format of the large-graph
// scale tier, with a version, checksums and a section structure, so
// multi-million-edge graphs can be generated once (cmd/graphgen) and
// loaded repeatedly with integrity guarantees, in constant memory beyond
// the CSR arrays themselves. codec.go holds the one writer and the one
// decoder.
//
// Layout (all little-endian, sections contiguous and in order):
//
//	header  magic "NVC1" | version u16 | flags u16 | |V| u64 | |E| u64
//	        per section {offset u64, length u64, crc32c u32, pad u32}
//	        header crc32c u32
//	rowptr  (|V|+1) × u64
//	edges   |E| × {dst u32, weight u32}
//
// Interleaving destination and weight per edge keeps the build single-pass
// per chunk: a streaming builder scatters 8-byte records into one section
// instead of revisiting the stream once per array.

// CSRFileVersion is the current container version.
const CSRFileVersion = 1

var csrFileMagic = [4]byte{'N', 'V', 'C', '1'}

const (
	csrFileSections   = 2 // rowptr, edges
	csrFileHeaderSize = 4 + 2 + 2 + 8 + 8 + csrFileSections*(8+8+4+4) + 4
	csrEdgeRecBytes   = 8
	// csrMaxVertices / csrMaxEdges bound header plausibility checks so a
	// corrupt size field cannot drive allocation.
	csrMaxVertices = 1 << 32
	csrMaxEdges    = 1 << 40
)

// Containers carry no header flags, and readers reject any, so a future
// layout cannot be misparsed as today's. Bit 0 marked a partitioned layout
// (per-interval slabs behind a partition table) that has been retired; a
// file that carries it is rejected with a hint to rebuild it.
const csrFlagPartitioned = 1 << 0

// crcTable is the Castagnoli polynomial (hardware-accelerated on amd64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// CSRFileInfo describes a container without loading its payload.
type CSRFileInfo struct {
	Version     int
	NumVertices int
	NumEdges    int64
	// RowPtrBytes and EdgeBytes are the section payload sizes.
	RowPtrBytes int64
	EdgeBytes   int64
	// ContentHash is a CRC32C-derived fingerprint of the container's
	// content: the header checksum, which covers the graph dimensions and
	// both section checksums, so it changes whenever any row pointer or
	// edge record differs and is equal for byte-identical payloads. It is
	// O(1) to obtain (StatCSRFile reads only the header), which is what
	// lets a result cache key on graph content without rehashing
	// gigabytes per request.
	ContentHash uint32
}

// fileInfo describes a container of n vertices and m edges.
func fileInfo(n int, m int64, contentHash uint32) CSRFileInfo {
	return CSRFileInfo{
		Version:     CSRFileVersion,
		NumVertices: n,
		NumEdges:    m,
		RowPtrBytes: int64(n+1) * 8,
		EdgeBytes:   m * csrEdgeRecBytes,
		ContentHash: contentHash,
	}
}

type csrSection struct {
	off, length uint64
	crc         uint32
}

// headerBytes serializes the fixed-size header for the given sections.
func headerBytes(numVertices int, numEdges int64, secs [csrFileSections]csrSection) []byte {
	buf := make([]byte, csrFileHeaderSize)
	copy(buf[0:4], csrFileMagic[:])
	binary.LittleEndian.PutUint16(buf[4:6], CSRFileVersion)
	binary.LittleEndian.PutUint16(buf[6:8], 0) // flags
	binary.LittleEndian.PutUint64(buf[8:16], uint64(numVertices))
	binary.LittleEndian.PutUint64(buf[16:24], uint64(numEdges))
	p := 24
	for _, s := range secs {
		binary.LittleEndian.PutUint64(buf[p:], s.off)
		binary.LittleEndian.PutUint64(buf[p+8:], s.length)
		binary.LittleEndian.PutUint32(buf[p+16:], s.crc)
		binary.LittleEndian.PutUint32(buf[p+20:], 0)
		p += 24
	}
	binary.LittleEndian.PutUint32(buf[p:], crc32.Checksum(buf[:p], crcTable))
	return buf
}

// parseHeader validates the fixed-size header and returns the layout it
// describes.
func parseHeader(buf []byte) (*csrLayout, error) {
	if len(buf) < csrFileHeaderSize {
		return nil, fmt.Errorf("%w: header truncated at %d bytes", ErrCorrupt, len(buf))
	}
	if [4]byte(buf[0:4]) != csrFileMagic {
		return nil, fmt.Errorf("%w: not a csr file (magic %q)", ErrCorrupt, buf[0:4])
	}
	if v := binary.LittleEndian.Uint16(buf[4:6]); v != CSRFileVersion {
		return nil, fmt.Errorf("%w: unsupported version %d (want %d)", ErrCorrupt, v, CSRFileVersion)
	}
	crcOff := csrFileHeaderSize - 4
	headerCRC := crc32.Checksum(buf[:crcOff], crcTable)
	if want := binary.LittleEndian.Uint32(buf[crcOff:]); headerCRC != want {
		return nil, fmt.Errorf("%w: header checksum mismatch (%#x != %#x)", ErrCorrupt, headerCRC, want)
	}
	switch flags := binary.LittleEndian.Uint16(buf[6:8]); {
	case flags&csrFlagPartitioned != 0:
		return nil, fmt.Errorf("%w: header flag %#x marks the retired partitioned layout; rebuild the file with graphgen", ErrCorrupt, flags)
	case flags != 0:
		return nil, fmt.Errorf("%w: unsupported header flags %#x", ErrCorrupt, flags)
	}
	n := binary.LittleEndian.Uint64(buf[8:16])
	m := binary.LittleEndian.Uint64(buf[16:24])
	if n == 0 || n > csrMaxVertices || m > csrMaxEdges {
		return nil, fmt.Errorf("%w: implausible sizes V=%d E=%d", ErrCorrupt, n, m)
	}
	l := &csrLayout{info: fileInfo(int(n), int64(m), headerCRC)}
	p := 24
	for i := range l.secs {
		l.secs[i].off = binary.LittleEndian.Uint64(buf[p:])
		l.secs[i].length = binary.LittleEndian.Uint64(buf[p+8:])
		l.secs[i].crc = binary.LittleEndian.Uint32(buf[p+16:])
		p += 24
	}
	// Sections must sit exactly where the writer puts them: contiguous,
	// in order, directly after the header. The offsets are stored for
	// tools and forward evolution, and validated here against a crafted
	// or bit-flipped section table.
	row, edge := l.secs[0], l.secs[1]
	if row.off != csrFileHeaderSize || row.length != uint64(l.info.RowPtrBytes) ||
		edge.off != row.off+row.length || edge.length != uint64(l.info.EdgeBytes) {
		return nil, fmt.Errorf("%w: section table inconsistent with V=%d E=%d", ErrCorrupt, n, m)
	}
	return l, nil
}

// WriteCSRFile serializes g into the versioned container at path.
func WriteCSRFile(path string, g *CSR) error {
	_, err := writeContainer(path, g.RowPtr, csrEdges(g))
	return err
}

// BuildOptions tune the streaming container build.
type BuildOptions struct {
	// ChunkEdges bounds the scatter buffer: pass two replays the stream
	// once per chunk of at most this many edges (default 4Mi edges,
	// a 32 MiB buffer). Smaller values trade generator replays for
	// memory.
	ChunkEdges int64
}

// BuildCSRFile generates st directly into the versioned container at path
// without ever materializing the graph: pass one counts degrees into the
// row pointers (O(|V|) memory), then the edge records are scattered chunk
// by chunk — each chunk covers a contiguous source-vertex range holding at
// most opt.ChunkEdges edges, filled by replaying the stream and keeping
// only that range. Peak memory is O(|V|) + O(ChunkEdges) regardless of
// |E|.
func BuildCSRFile(path string, st EdgeStream, opt BuildOptions) (CSRFileInfo, error) {
	chunk := opt.ChunkEdges
	if chunk <= 0 {
		chunk = 4 << 20
	}
	n := st.NumVertices()
	rowPtr := make([]int64, n+1)
	st.Reset()
	for {
		e, ok := st.Next()
		if !ok {
			break
		}
		if int(e.Src) >= n || int(e.Dst) >= n {
			return CSRFileInfo{}, fmt.Errorf("graph: stream edge %d->%d out of range %d", e.Src, e.Dst, n)
		}
		rowPtr[e.Src+1]++
	}
	for i := 1; i <= n; i++ {
		rowPtr[i] += rowPtr[i-1]
	}
	return writeContainer(path, rowPtr, func(sw *sectionWriter) error {
		return scatterEdges(st, rowPtr, chunk, sw.write)
	})
}

// scatterEdges replays st once per chunk and hands the encoded edge
// records to emit in row-pointer order. Each chunk covers a contiguous
// source range holding at most chunk edges (always at least one vertex, so
// a single hub denser than the budget still builds — with a
// proportionally larger buffer). Zero stream weights are stored as 1.
func scatterEdges(st EdgeStream, rowPtr []int64, chunk int64, emit func([]byte) error) error {
	n := len(rowPtr) - 1
	buf := make([]byte, 0, min(chunk, rowPtr[n])*csrEdgeRecBytes)
	var cursor []int64
	for vLo := 0; vLo < n; {
		cHi := vLo + 1
		for cHi < n && rowPtr[cHi+1]-rowPtr[vLo] <= chunk {
			cHi++
		}
		base := rowPtr[vLo]
		need := (rowPtr[cHi] - base) * csrEdgeRecBytes
		if int64(cap(buf)) < need {
			buf = make([]byte, need)
		} else {
			buf = buf[:need]
		}
		if cap(cursor) < cHi-vLo {
			cursor = make([]int64, cHi-vLo)
		} else {
			cursor = cursor[:cHi-vLo]
			clear(cursor)
		}
		st.Reset()
		for {
			e, ok := st.Next()
			if !ok {
				break
			}
			if int(e.Src) < vLo || int(e.Src) >= cHi {
				continue
			}
			slot := rowPtr[e.Src] - base + cursor[int(e.Src)-vLo]
			cursor[int(e.Src)-vLo]++
			w := e.Weight
			if w == 0 {
				w = 1
			}
			binary.LittleEndian.PutUint32(buf[slot*csrEdgeRecBytes:], uint32(e.Dst))
			binary.LittleEndian.PutUint32(buf[slot*csrEdgeRecBytes+4:], w)
		}
		if err := emit(buf); err != nil {
			return err
		}
		vLo = cHi
	}
	return nil
}

// ReadCSR deserializes a versioned container from r, verifying the header
// and every checksum. The payload streams through a fixed-size buffer
// straight into the CSR arrays — no extra copy of the file and no edge
// list, so peak memory is the returned graph plus O(1).
func ReadCSR(name string, r io.Reader) (*CSR, error) {
	hdr := make([]byte, csrFileHeaderSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("%w: header short read: %w", ErrCorrupt, err)
	}
	l, err := parseHeader(hdr)
	if err != nil {
		return nil, err
	}
	return l.decode(name, &sectionSource{r: r}, nil)
}

// ReadCSRFile loads the versioned container at path.
func ReadCSRFile(path string) (*CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSR(path, bufio.NewReaderSize(f, 1<<20))
}

// StatCSRFile reads and validates only the header of the container at
// path — O(1) work regardless of graph size.
func StatCSRFile(path string) (CSRFileInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return CSRFileInfo{}, err
	}
	defer f.Close()
	hdr := make([]byte, csrFileHeaderSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return CSRFileInfo{}, fmt.Errorf("%w: header short read: %w", ErrCorrupt, err)
	}
	l, err := parseHeader(hdr)
	if err != nil {
		return CSRFileInfo{}, err
	}
	return l.info, nil
}
