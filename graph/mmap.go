package graph

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// MappedCSR is a CSR container opened through the operating system's page
// cache: the file is mapped read-only and validated in place, and the
// graph's row-pointer array aliases the mapping directly on little-endian
// hosts (the on-disk u64 records are exactly the in-memory []int64
// layout). The interleaved edge section cannot be aliased — Dst and
// Weight are separate arrays in memory — so edges are decoded once into
// private slices.
//
// The design point is a long-running service: one MappedCSR is opened per
// registered graph and the *CSR it exposes is shared read-only by every
// concurrent simulation job, so N in-flight requests cost one copy of the
// graph, not N. Nothing in the engines mutates a CSR (the type is
// documented immutable), which is what makes the sharing — and the
// aliased mapping — safe.
//
// Close unmaps the file; the caller must guarantee no simulation still
// holds the CSR (the service registry refcounts entries for exactly this
// reason). After Close, touching an aliased RowPtr faults.
type MappedCSR struct {
	// G is the shared read-only graph view.
	G *CSR
	// Info describes the container (including its ContentHash).
	Info CSRFileInfo
	// data is the mapping (or the whole-file read on platforms without
	// mmap); aliased holds whether G.RowPtr points into data, and backed
	// whether data is a live kernel mapping rather than a heap copy.
	data    []byte
	aliased bool
	backed  bool
	unmap   func([]byte) error
}

// hostIsLittleEndian reports whether native byte order matches the
// container's on-disk order, which is what permits aliasing the mapped
// row-pointer section as []int64 without a decode pass.
func hostIsLittleEndian() bool {
	var probe [2]byte
	binary.NativeEndian.PutUint16(probe[:], 1)
	return probe[0] == 1
}

// OpenCSRFileMapped opens the versioned container at path via mmap (where
// the platform supports it; otherwise a whole-file read), verifies every
// checksum exactly as ReadCSRFile does, and returns the shared graph
// view. Corruption reports wrap ErrCorrupt; the mapping is released on
// every error path.
func OpenCSRFileMapped(path string) (m *MappedCSR, err error) {
	data, unmap, backed, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			unmap(data)
		}
	}()
	if len(data) < csrFileHeaderSize {
		return nil, fmt.Errorf("%w: file shorter than header (%d bytes)", ErrCorrupt, len(data))
	}
	l, err := parseHeader(data[:csrFileHeaderSize])
	if err != nil {
		return nil, err
	}
	if end := l.secs[1].off + l.secs[1].length; uint64(len(data)) < end {
		return nil, fmt.Errorf("%w: file truncated at %d bytes, sections end at %d", ErrCorrupt, len(data), end)
	}
	// The row section is the in-memory []int64 on little-endian hosts:
	// alias it, and let the decoder verify it in place.
	var rowPtr []int64
	if row := data[l.secs[0].off:]; hostIsLittleEndian() {
		rowPtr = unsafe.Slice((*int64)(unsafe.Pointer(&row[0])), l.info.NumVertices+1)
	}
	g, err := l.decode(path, &sectionSource{data: data}, rowPtr)
	if err != nil {
		return nil, err
	}
	return &MappedCSR{G: g, Info: l.info, data: data, aliased: rowPtr != nil, backed: backed, unmap: unmap}, nil
}

// Close releases the mapping. The caller must not touch G (or any slice
// derived from it) afterwards when the row pointers alias the mapping.
// Close is idempotent.
func (m *MappedCSR) Close() error {
	if m.data == nil {
		return nil
	}
	data := m.data
	m.data = nil
	if m.aliased {
		// Detach the aliased view so a use-after-Close on the Go side
		// fails as an out-of-bounds panic rather than a page fault when
		// it can (the slice header outlives the mapping either way).
		m.G.RowPtr = nil
	}
	return m.unmap(data)
}

// Mapped reports whether the container is backed by a live memory mapping
// (false on platforms without mmap support, where the file was read).
func (m *MappedCSR) Mapped() bool { return m.data != nil && m.backed }
