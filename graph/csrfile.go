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
// decoder both layouts share.
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
	csrFileSections   = 2 // rowptr, edges (flat) or table, payload (partitioned)
	csrFileHeaderSize = 4 + 2 + 2 + 8 + 8 + csrFileSections*(8+8+4+4) + 4
	csrEdgeRecBytes   = 8
	// csrMaxVertices / csrMaxEdges bound header plausibility checks so a
	// corrupt size field cannot drive allocation.
	csrMaxVertices = 1 << 32
	csrMaxEdges    = 1 << 40
)

// Header flag bits. Readers reject unknown bits so a future layout cannot
// be misparsed as one of today's; flat containers written before the flag
// existed carry 0 and parse unchanged.
const (
	// csrFlagPartitioned marks the partitioned layout (csrpart.go):
	// section 0 is a partition table instead of the row pointers, and
	// section 1 interleaves per-partition row-pointer and edge slabs, each
	// pair carrying its own CRC32C so one vertex interval can be paged in
	// and verified without touching the rest of the file.
	csrFlagPartitioned = 1 << 0

	csrKnownFlags = csrFlagPartitioned
)

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
	// Partitioned reports the partitioned layout (csrpart.go): the payload
	// is split into contiguous vertex-interval partitions, each carrying
	// its own row-pointer and edge CRC32C so it can be paged in and
	// verified independently. NumPartitions is zero for flat containers.
	Partitioned   bool
	NumPartitions int
	// ContentHash is a CRC32C-derived fingerprint of the container's
	// content: the header checksum, which covers the graph dimensions and
	// both section checksums, so it changes whenever any row pointer or
	// edge record differs and is equal for byte-identical payloads. It is
	// O(1) to obtain (StatCSRFile reads only the header), which is what
	// lets a result cache key on graph content without rehashing
	// gigabytes per request.
	ContentHash uint32
}

type csrSection struct {
	off, length uint64
	crc         uint32
}

// headerBytes serializes the fixed-size header for the given sections.
func headerBytes(numVertices int, numEdges int64, flags uint16, secs [csrFileSections]csrSection) []byte {
	buf := make([]byte, csrFileHeaderSize)
	copy(buf[0:4], csrFileMagic[:])
	binary.LittleEndian.PutUint16(buf[4:6], CSRFileVersion)
	binary.LittleEndian.PutUint16(buf[6:8], flags)
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
// describes: a flat file's one slab is complete, a partitioned file's
// slabs still need readTable.
func parseHeader(buf []byte) (*csrLayout, error) {
	var secs [csrFileSections]csrSection
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
	flags := binary.LittleEndian.Uint16(buf[6:8])
	if flags&^uint16(csrKnownFlags) != 0 {
		return nil, fmt.Errorf("%w: unsupported header flags %#x", ErrCorrupt, flags)
	}
	n := binary.LittleEndian.Uint64(buf[8:16])
	m := binary.LittleEndian.Uint64(buf[16:24])
	if n == 0 || n > csrMaxVertices || m > csrMaxEdges {
		return nil, fmt.Errorf("%w: implausible sizes V=%d E=%d", ErrCorrupt, n, m)
	}
	p := 24
	for i := range secs {
		secs[i].off = binary.LittleEndian.Uint64(buf[p:])
		secs[i].length = binary.LittleEndian.Uint64(buf[p+8:])
		secs[i].crc = binary.LittleEndian.Uint32(buf[p+16:])
		p += 24
	}
	// Sections must sit exactly where the writer puts them: contiguous,
	// in order, directly after the header. The offsets are stored for
	// tools and forward evolution, and validated here against a crafted
	// or bit-flipped section table.
	if flags&csrFlagPartitioned != 0 {
		// Partitioned layout: section 0 is the partition table (partition
		// count + fixed-size entries), section 1 the payload. The table
		// length pins the partition count, and the payload length is fully
		// determined by V, E, and that count — each partition stores its
		// vCount+1 row pointers (interval boundaries are duplicated), so
		// the payload holds (V+P)×u64 row pointers plus E edge records.
		tl := secs[0].length
		if secs[0].off != csrFileHeaderSize || tl < 8+csrPartEntryBytes || (tl-8)%csrPartEntryBytes != 0 {
			return nil, fmt.Errorf("%w: partition table geometry inconsistent (len %d)", ErrCorrupt, tl)
		}
		nParts := (tl - 8) / csrPartEntryBytes
		if nParts > n {
			return nil, fmt.Errorf("%w: %d partitions for %d vertices", ErrCorrupt, nParts, n)
		}
		wantRow := (n + nParts) * 8
		wantPayload := wantRow + m*csrEdgeRecBytes
		if secs[1].off != secs[0].off+tl || secs[1].length != wantPayload {
			return nil, fmt.Errorf("%w: section table inconsistent with V=%d E=%d P=%d", ErrCorrupt, n, m, nParts)
		}
		return &csrLayout{secs: secs, info: CSRFileInfo{
			Version:       CSRFileVersion,
			NumVertices:   int(n),
			NumEdges:      int64(m),
			RowPtrBytes:   int64(wantRow),
			EdgeBytes:     int64(m * csrEdgeRecBytes),
			Partitioned:   true,
			NumPartitions: int(nParts),
			ContentHash:   headerCRC,
		}}, nil
	}
	wantRow := uint64(n+1) * 8
	wantEdge := m * csrEdgeRecBytes
	if secs[0].off != csrFileHeaderSize || secs[0].length != wantRow ||
		secs[1].off != secs[0].off+secs[0].length || secs[1].length != wantEdge {
		return nil, fmt.Errorf("%w: section table inconsistent with V=%d E=%d", ErrCorrupt, n, m)
	}
	return &csrLayout{
		secs: secs,
		info: CSRFileInfo{
			Version:     CSRFileVersion,
			NumVertices: int(n),
			NumEdges:    int64(m),
			RowPtrBytes: int64(wantRow),
			EdgeBytes:   int64(wantEdge),
			ContentHash: headerCRC,
		},
		slabs: []csrPartition{{
			vCount: int(n), edges: int64(m),
			rowOff: secs[0].off, edgeOff: secs[1].off,
			rowCRC: secs[0].crc, edgeCRC: secs[1].crc,
		}},
	}, nil
}

// WriteCSRFile serializes g into the versioned container at path.
func WriteCSRFile(path string, g *CSR) error {
	_, err := writeContainer(path, g.RowPtr, []int{0, g.NumVertices()}, false, csrEdges(g))
	return err
}

// BuildOptions tune the streaming container build.
type BuildOptions struct {
	// ChunkEdges bounds the scatter buffer: pass two replays the stream
	// once per chunk of at most this many edges (default 4Mi edges,
	// a 32 MiB buffer). Smaller values trade generator replays for
	// memory.
	ChunkEdges int64
	// PartitionEdges, when positive, emits the partitioned layout
	// (csrpart.go) instead of the flat one: contiguous vertex intervals
	// holding at most this many edges each (always at least one vertex),
	// independently checksummed so the out-of-core tier can page one in
	// without validating the whole file.
	PartitionEdges int64
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
	var m int64
	for {
		e, ok := st.Next()
		if !ok {
			break
		}
		if int(e.Src) >= n || int(e.Dst) >= n {
			return CSRFileInfo{}, fmt.Errorf("graph: stream edge %d->%d out of range %d", e.Src, e.Dst, n)
		}
		rowPtr[e.Src+1]++
		m++
	}
	for i := 1; i <= n; i++ {
		rowPtr[i] += rowPtr[i-1]
	}
	// The row pointers are counted, so partition boundaries are known up
	// front and each slab's edges stream out through the chunked scatter,
	// bounded to the slab's vertex interval.
	bounds := []int{0, n}
	if opt.PartitionEdges > 0 {
		bounds = partitionBoundaries(rowPtr, opt.PartitionEdges)
	}
	sc := newEdgeScatter(chunk, m)
	return writeContainer(path, rowPtr, bounds, opt.PartitionEdges > 0, func(sw *slabWriter, lo, hi int) error {
		return sc.scatter(st, rowPtr, lo, hi, sw.write)
	})
}

// edgeScatter holds the reusable chunk buffers of the streaming edge
// scatter that feeds BuildCSRFile's slabs.
type edgeScatter struct {
	chunk  int64
	buf    []byte
	cursor []int64
}

func newEdgeScatter(chunk, totalEdges int64) *edgeScatter {
	return &edgeScatter{chunk: chunk, buf: make([]byte, 0, min(chunk, totalEdges)*csrEdgeRecBytes)}
}

// scatter replays st once per chunk and hands the encoded edge records of
// sources [vLo, vHi) to emit in row-pointer order. Each chunk covers a
// contiguous source range holding at most chunk edges (always at least one
// vertex, so a single hub denser than the budget still builds — with a
// proportionally larger buffer). Zero stream weights are stored as 1.
func (sc *edgeScatter) scatter(st EdgeStream, rowPtr []int64, vLo, vHi int, emit func([]byte) error) error {
	for vLo < vHi {
		cHi := vLo + 1
		for cHi < vHi && rowPtr[cHi+1]-rowPtr[vLo] <= sc.chunk {
			cHi++
		}
		base := rowPtr[vLo]
		span := rowPtr[cHi] - base
		need := span * csrEdgeRecBytes
		if int64(cap(sc.buf)) < need {
			sc.buf = make([]byte, need)
		} else {
			sc.buf = sc.buf[:need]
		}
		if cap(sc.cursor) < cHi-vLo {
			sc.cursor = make([]int64, cHi-vLo)
		} else {
			sc.cursor = sc.cursor[:cHi-vLo]
			for i := range sc.cursor {
				sc.cursor[i] = 0
			}
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
			slot := rowPtr[e.Src] - base + sc.cursor[int(e.Src)-vLo]
			sc.cursor[int(e.Src)-vLo]++
			w := e.Weight
			if w == 0 {
				w = 1
			}
			binary.LittleEndian.PutUint32(sc.buf[slot*csrEdgeRecBytes:], uint32(e.Dst))
			binary.LittleEndian.PutUint32(sc.buf[slot*csrEdgeRecBytes+4:], w)
		}
		if err := emit(sc.buf); err != nil {
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
	src := &slabSource{r: r}
	if err := l.readTable(src); err != nil {
		return nil, err
	}
	// A stream cannot be reread, so a partitioned file's whole-payload
	// checksum accumulates while the slabs decode.
	payload := crc32.New(crcTable)
	if l.info.Partitioned {
		src.r = io.TeeReader(r, payload)
	}
	g, err := l.decode(name, src, nil)
	if err != nil {
		return nil, err
	}
	if l.info.Partitioned && payload.Sum32() != l.secs[1].crc {
		return nil, fmt.Errorf("%w: payload section checksum mismatch", ErrCorrupt)
	}
	return g, nil
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
