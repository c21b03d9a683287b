package graph

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"
)

// TestContainerGolden pins the exact bytes the writers emit for the shape
// validContainer and validPartitionedContainer use. The byte-identity
// tests compare writers with each other; only a pinned digest catches a
// change of the format itself.
func TestContainerGolden(t *testing.T) {
	g := GenUniform("t", 60, 4, 8, 1)
	for _, tc := range []struct {
		name  string
		write func(path string) error
		size  int
		sum   string
	}{
		{"flat", func(p string) error { return WriteCSRFile(p, g) },
			2484, "f18b4b991051bc7e250ff47503c84e4ea35c27a917deb183906db8536022bc8e"},
		{"partitioned", func(p string) error { _, err := WritePartitionedCSRFile(p, g, 40); return err },
			2876, "ec1d704cf4a8678f0cded4c4762d625f5ab57c743663df2f86a373923a993170"},
	} {
		path := filepath.Join(t.TempDir(), tc.name+".csr")
		if err := tc.write(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if len(data) != tc.size || hex.EncodeToString(sum[:]) != tc.sum {
			t.Errorf("%s: %d bytes sha256 %x, want %d bytes %s", tc.name, len(data), sum, tc.size, tc.sum)
		}
	}
}

// TestFlatMappedRowPtrAliasesFile: on little-endian hosts a flat file's
// row pointers are the mapped row section itself, not a decoded copy.
func TestFlatMappedRowPtrAliasesFile(t *testing.T) {
	if !hostIsLittleEndian() {
		t.Skip("row pointers alias the file only on little-endian hosts")
	}
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := WriteCSRFile(path, GenUniform("t", 60, 4, 8, 1)); err != nil {
		t.Fatal(err)
	}
	m, err := OpenCSRFileMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	row := m.data[csrFileHeaderSize:]
	if !m.aliased || unsafe.SliceData(m.G.RowPtr) != (*int64)(unsafe.Pointer(&row[0])) {
		t.Fatal("flat RowPtr is a copy, not the mapped row section")
	}
}

// TestFlatRowPtrMustStartAtZero: a flat file is the one-slab case, so its
// row pointers must start at edge 0 like any slab's start at its first
// edge. A resealed file whose first row pointer skips edges would leave
// them owned by no vertex while |E| still counts them.
func TestFlatRowPtrMustStartAtZero(t *testing.T) {
	bad := append([]byte(nil), validContainer(t)...)
	row := bad[csrFileHeaderSize:]
	copy(row[0:8], row[8:16]) // RowPtr[0] = RowPtr[1] keeps the order
	if binary.LittleEndian.Uint64(row) == 0 {
		t.Fatal("vertex 0 has no edges; pick a shape where it does")
	}
	rowLen := binary.LittleEndian.Uint64(bad[24+8:])
	binary.LittleEndian.PutUint32(bad[24+16:], crc32Checksum(row[:rowLen]))
	resealHeader(bad)
	path := filepath.Join(t.TempDir(), "bad.csr")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCSR("t", bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("ReadCSR: %v, want ErrCorrupt", err)
	}
	if m, err := OpenCSRFileMapped(path); !errors.Is(err, ErrCorrupt) {
		if err == nil {
			m.Close()
		}
		t.Errorf("OpenCSRFileMapped: %v, want ErrCorrupt", err)
	}
}

// resealedPayloadCRC returns a valid partitioned container whose payload
// section CRC is flipped and whose header CRC is resealed: every slab and
// the table still verify, only the whole-payload checksum is wrong.
func resealedPayloadCRC(t testing.TB) []byte {
	bad := append([]byte(nil), validPartitionedContainer(t)...)
	crcOff := 24 + 24 + 16 // section 1's crc field
	binary.LittleEndian.PutUint32(bad[crcOff:], binary.LittleEndian.Uint32(bad[crcOff:])^1)
	resealHeader(bad)
	return bad
}

// wrappedEdgeCounts returns a partitioned container whose resealed table
// inflates three partitions' edge counts by amounts summing to 2^64, with
// the slab offsets shifted to match: the sums wrap back to the header's
// |E| and payload size, so only a per-entry bound on the counts stops the
// readers from slicing or allocating by them.
func wrappedEdgeCounts(t testing.TB) []byte {
	b := append([]byte(nil), validPartitionedContainer(t)...)
	var shift uint64
	for i, x := range []uint64{6148914691236517205, 6148914691236517205, 6148914691236517206} {
		e := csrFileHeaderSize + 8 + i*csrPartEntryBytes
		for _, f := range []struct {
			off   int
			delta uint64
		}{{16, x}, {24, shift}, {32, shift}} { // edges, rowOff, edgeOff
			binary.LittleEndian.PutUint64(b[e+f.off:], binary.LittleEndian.Uint64(b[e+f.off:])+f.delta)
		}
		shift += x * csrEdgeRecBytes
	}
	tl := int(binary.LittleEndian.Uint64(b[24+8:]))
	binary.LittleEndian.PutUint32(b[24+16:], crc32Checksum(b[csrFileHeaderSize:csrFileHeaderSize+tl]))
	resealHeader(b)
	return b
}

// TestMaterializeChecksPayloadCRC: the pager's Materialize rejects a
// payload-CRC mismatch exactly like the full readers, on both its mapped
// and its ReadAt path, while Open and Acquire keep deferring validation to
// the slabs they touch.
func TestMaterializeChecksPayloadCRC(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.csr")
	if err := os.WriteFile(path, resealedPayloadCRC(t), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCSRFile(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadCSRFile: %v, want ErrCorrupt", err)
	}
	for _, mapped := range []bool{true, false} {
		pc, err := OpenPartitionedCSR(path, 1)
		if err != nil {
			t.Fatalf("open must defer payload validation: %v", err)
		}
		if !mapped && pc.data != nil {
			// The ReadAt path, the one platforms without mmap take.
			if err := pc.unmap(pc.data); err != nil {
				t.Fatal(err)
			}
			pc.data = nil
		}
		p, err := pc.Acquire(0)
		if err != nil {
			t.Fatalf("mapped=%v: intact slab rejected: %v", mapped, err)
		}
		pc.Release(p)
		_, err = pc.Materialize()
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "payload section checksum mismatch") {
			t.Fatalf("mapped=%v: Materialize = %v, want the payload checksum mismatch", mapped, err)
		}
		pc.Close()
	}
}

// FuzzContainerReaders holds the three container readers to one verdict:
// OpenCSRFileMapped accepts exactly what ReadCSR accepts and yields the
// identical graph; so does the pager's Materialize on partitioned inputs
// (flat files skip the pager, which refuses them by design); and every
// rejection wraps ErrCorrupt.
func FuzzContainerReaders(f *testing.F) {
	for _, seed := range readerSeeds(f) {
		f.Add(seed)
	}
	f.Add(resealedPayloadCRC(f))
	f.Add(wrappedEdgeCounts(f))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "fuzz.csr")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, rerr := ReadCSR(path, bytes.NewReader(data))
		check := func(reader string, g *CSR, err error) {
			t.Helper()
			switch {
			case err != nil && !errors.Is(err, ErrCorrupt):
				t.Fatalf("%s: rejection not typed ErrCorrupt: %v", reader, err)
			case (err == nil) != (rerr == nil):
				t.Fatalf("%s: err %v, ReadCSR err %v", reader, err, rerr)
			case err == nil:
				sameCSR(t, g, want)
			}
		}
		var g *CSR
		m, err := OpenCSRFileMapped(path)
		if err == nil {
			defer m.Close()
			g = m.G
		}
		check("OpenCSRFileMapped", g, err)
		info, err := StatCSRFile(path)
		if err != nil || !info.Partitioned {
			return
		}
		pc, err := OpenPartitionedCSR(path, 1)
		if err != nil {
			check("OpenPartitionedCSR", nil, err)
			return
		}
		defer pc.Close()
		g, err = pc.Materialize()
		check("Materialize", g, err)
	})
}
