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

// TestContainerGolden pins the exact bytes the writer emits for the shape
// validContainer uses. TestBuildCSRFileMatchesFromStream compares the
// streamed build's bytes with WriteCSRFile's; only a pinned digest
// catches a change of the format itself.
func TestContainerGolden(t *testing.T) {
	data := validContainer(t)
	sum := sha256.Sum256(data)
	const size, want = 2484, "f18b4b991051bc7e250ff47503c84e4ea35c27a917deb183906db8536022bc8e"
	if len(data) != size || hex.EncodeToString(sum[:]) != want {
		t.Errorf("%d bytes sha256 %x, want %d bytes %s", len(data), sum, size, want)
	}
}

// TestFlatMappedRowPtrAliasesFile: on little-endian hosts a file's row
// pointers are the mapped row section itself, not a decoded copy.
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

// TestFlatRowPtrMustStartAtZero: row pointers must start at edge 0. A
// resealed file whose first row pointer skips edges would leave them
// owned by no vertex while |E| still counts them.
func TestFlatRowPtrMustStartAtZero(t *testing.T) {
	bad := append([]byte(nil), validContainer(t)...)
	row := bad[csrFileHeaderSize:]
	copy(row[0:8], row[8:16]) // RowPtr[0] = RowPtr[1] keeps the order
	if binary.LittleEndian.Uint64(row) == 0 {
		t.Fatal("vertex 0 has no edges; pick a shape where it does")
	}
	resealSections(bad)
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

// retiredLayoutContainer returns validContainer with the header flag bit
// of the retired partitioned layout set and the header resealed, so only
// the flag check stands between the file and a reader.
func retiredLayoutContainer(t testing.TB) []byte {
	b := validContainer(t)
	binary.LittleEndian.PutUint16(b[6:8], csrFlagPartitioned)
	resealHeader(b)
	return b
}

// TestRetiredLayoutRejected: a file that carries the retired partitioned
// layout's flag bit is refused by every reader as corrupt, with an error
// that says how to get a readable file.
func TestRetiredLayoutRejected(t *testing.T) {
	data := retiredLayoutContainer(t)
	path := filepath.Join(t.TempDir(), "retired.csr")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		name string
		read func() error
	}{
		{"ReadCSR", func() error { _, err := ReadCSR("t", bytes.NewReader(data)); return err }},
		{"ReadCSRFile", func() error { _, err := ReadCSRFile(path); return err }},
		{"OpenCSRFileMapped", func() error {
			m, err := OpenCSRFileMapped(path)
			if err == nil {
				m.Close()
			}
			return err
		}},
		{"StatCSRFile", func() error { _, err := StatCSRFile(path); return err }},
	} {
		if err := r.read(); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "graphgen") {
			t.Errorf("%s: %v, want ErrCorrupt naming graphgen", r.name, err)
		}
	}
}

// FuzzContainerReaders holds the two container readers to one verdict:
// OpenCSRFileMapped accepts exactly what ReadCSR accepts and yields the
// identical graph, and every rejection wraps ErrCorrupt.
func FuzzContainerReaders(f *testing.F) {
	for _, seed := range readerSeeds(f) {
		f.Add(seed)
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "fuzz.csr")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, rerr := ReadCSR(path, bytes.NewReader(data))
		if rerr != nil && !errors.Is(rerr, ErrCorrupt) {
			t.Fatalf("ReadCSR: rejection not typed ErrCorrupt: %v", rerr)
		}
		m, err := OpenCSRFileMapped(path)
		switch {
		case err != nil && !errors.Is(err, ErrCorrupt):
			t.Fatalf("OpenCSRFileMapped: rejection not typed ErrCorrupt: %v", err)
		case (err == nil) != (rerr == nil):
			t.Fatalf("OpenCSRFileMapped: err %v, ReadCSR err %v", err, rerr)
		case err == nil:
			defer m.Close()
			sameCSR(t, m.G, want)
		}
	})
}
