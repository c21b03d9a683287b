package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func sameCSR(t *testing.T, got, want *CSR) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("V/E mismatch: got V=%d E=%d, want V=%d E=%d",
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("RowPtr[%d]: got %d, want %d", i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for i := range want.Dst {
		if got.Dst[i] != want.Dst[i] || got.Weight[i] != want.Weight[i] {
			t.Fatalf("edge %d: got (%d,%d), want (%d,%d)",
				i, got.Dst[i], got.Weight[i], want.Dst[i], want.Weight[i])
		}
	}
}

func TestCSRFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(80)
		g := FromEdges("t", n, randEdges(rng, n, rng.Intn(400)))
		path := filepath.Join(dir, "g.csr")
		if err := WriteCSRFile(path, g); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSRFile(path)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sameCSR(t, back, g)

		info, err := StatCSRFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.NumVertices != g.NumVertices() || info.NumEdges != g.NumEdges() {
			t.Fatalf("Stat: V=%d E=%d, want V=%d E=%d",
				info.NumVertices, info.NumEdges, g.NumVertices(), g.NumEdges())
		}
	}
}

func TestBuildCSRFileMatchesFromStream(t *testing.T) {
	dir := t.TempDir()
	st := NewRMATStream("rmat", 500, 8, DefaultRMAT, 64, 11)
	want := FromStream(st)
	// Chunk budgets far below |E| exercise the multi-pass scatter; a huge
	// budget exercises the single-pass path. Both must produce the exact
	// bytes WriteCSRFile produces for the materialized graph.
	wantPath := filepath.Join(dir, "want.csr")
	if err := WriteCSRFile(wantPath, want); err != nil {
		t.Fatal(err)
	}
	wantBytes, err := os.ReadFile(wantPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int64{0, 1, 7, 64, 1 << 30} {
		path := filepath.Join(dir, "got.csr")
		info, err := BuildCSRFile(path, st, BuildOptions{ChunkEdges: chunk})
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if info.NumVertices != want.NumVertices() || info.NumEdges != want.NumEdges() {
			t.Fatalf("chunk %d: info V=%d E=%d", chunk, info.NumVertices, info.NumEdges)
		}
		gotBytes, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("chunk %d: container bytes differ from WriteCSRFile", chunk)
		}
		back, err := ReadCSRFile(path)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		sameCSR(t, back, want)
	}
}

// validContainer builds one well-formed container in memory.
func validContainer(t testing.TB) []byte {
	t.Helper()
	dir := t.TempDir()
	g := GenUniform("t", 60, 4, 8, 1)
	path := filepath.Join(dir, "g.csr")
	if err := WriteCSRFile(path, g); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestReadCSRRejectsCorruption(t *testing.T) {
	good := validContainer(t)

	mutate := func(name string, f func([]byte)) {
		bad := append([]byte(nil), good...)
		f(bad)
		_, err := ReadCSR("t", bytes.NewReader(bad))
		if err == nil {
			t.Errorf("%s accepted", name)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error not typed ErrCorrupt: %v", name, err)
		}
	}
	mutate("bad magic", func(b []byte) { b[0] ^= 0xFF })
	mutate("bad version", func(b []byte) { binary.LittleEndian.PutUint16(b[4:6], 99) })
	// Header fields are covered by the header CRC, so any size or section
	// tampering must be caught even before payload validation.
	mutate("tampered vertex count", func(b []byte) { b[8] ^= 0x01 })
	mutate("tampered edge count", func(b []byte) { b[16] ^= 0x01 })
	mutate("tampered section offset", func(b []byte) { b[24] ^= 0x01 })
	mutate("tampered header crc", func(b []byte) { b[csrFileHeaderSize-1] ^= 0x01 })
	// Payload corruption is caught by section CRCs.
	mutate("flipped rowptr byte", func(b []byte) { b[csrFileHeaderSize] ^= 0x01 })
	mutate("flipped edge byte", func(b []byte) { b[len(b)-1] ^= 0x01 })

	// Truncation at every region boundary (and mid-region).
	for _, cut := range []int{0, 3, csrFileHeaderSize - 1, csrFileHeaderSize,
		csrFileHeaderSize + 5, len(good) - 1} {
		_, err := ReadCSR("t", bytes.NewReader(good[:cut]))
		if err == nil {
			t.Errorf("truncation at %d accepted", cut)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation at %d: error not typed ErrCorrupt: %v", cut, err)
		}
	}

	// A consistent-looking header whose section table disagrees with the
	// declared sizes must be rejected: shrink |E| and re-seal the CRC.
	bad := append([]byte(nil), good...)
	m := binary.LittleEndian.Uint64(bad[16:24])
	binary.LittleEndian.PutUint64(bad[16:24], m-1)
	resealHeader(bad)
	if _, err := ReadCSR("t", bytes.NewReader(bad)); err == nil {
		t.Error("inconsistent section table accepted")
	}
}

// resealHeader recomputes the header CRC after deliberate tampering, so
// tests reach the validation layers behind it.
func resealHeader(b []byte) {
	crcOff := csrFileHeaderSize - 4
	binary.LittleEndian.PutUint32(b[crcOff:], crc32Checksum(b[:crcOff]))
}

func crc32Checksum(p []byte) uint32 { return crc32.Checksum(p, crcTable) }

// resealSections recomputes both section CRCs and then the header CRC
// after deliberate payload tampering, so tests reach the decoder's
// structural checks behind them.
func resealSections(b []byte) {
	for e := 24; e < 24+csrFileSections*24; e += 24 {
		off := binary.LittleEndian.Uint64(b[e:])
		n := binary.LittleEndian.Uint64(b[e+8:])
		binary.LittleEndian.PutUint32(b[e+16:], crc32Checksum(b[off:off+n]))
	}
	resealHeader(b)
}

func TestReadCSRRejectsBadRowPtr(t *testing.T) {
	// Out-of-order row pointers with correct CRCs: corrupt the payload
	// and re-seal both the section CRC and the header CRC.
	good := validContainer(t)
	bad := append([]byte(nil), good...)
	// Swap two row pointers to break monotonicity.
	a := csrFileHeaderSize
	row1 := binary.LittleEndian.Uint64(bad[a+8:])
	row2 := binary.LittleEndian.Uint64(bad[a+16:])
	if row1 == row2 {
		row2 += 100000 // force a visible out-of-order pair
	}
	binary.LittleEndian.PutUint64(bad[a+8:], row2)
	binary.LittleEndian.PutUint64(bad[a+16:], row1)
	resealSections(bad)
	if _, err := ReadCSR("t", bytes.NewReader(bad)); err == nil {
		t.Error("non-monotonic row pointers accepted")
	}
}

// TestReadCSRCorruptionIsTyped drives every corruption class the loader
// distinguishes — truncation mid-header and mid-section, oversized
// declared sizes and section lengths, tampered payloads behind resealed
// checksums — and requires each to come back as a typed ErrCorrupt, never
// a panic and never an untyped error.
func TestReadCSRCorruptionIsTyped(t *testing.T) {
	good := validContainer(t)
	rowLen := int(binary.LittleEndian.Uint64(good[24+8:]))
	cases := []struct {
		name string
		mut  func(b []byte) []byte
	}{
		{"empty file", func(b []byte) []byte { return nil }},
		{"truncated mid-magic", func(b []byte) []byte { return b[:2] }},
		{"truncated mid-header", func(b []byte) []byte { return b[:csrFileHeaderSize/2] }},
		{"truncated before header crc", func(b []byte) []byte { return b[:csrFileHeaderSize-4] }},
		{"header only", func(b []byte) []byte { return b[:csrFileHeaderSize] }},
		{"truncated mid-rowptr", func(b []byte) []byte { return b[:csrFileHeaderSize+rowLen/2] }},
		{"truncated at section boundary", func(b []byte) []byte { return b[:csrFileHeaderSize+rowLen] }},
		{"truncated mid-edge-record", func(b []byte) []byte { return b[:len(b)-3] }},
		{"oversized vertex count", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:16], csrMaxVertices+1)
			resealHeader(b)
			return b
		}},
		{"oversized edge count", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:24], csrMaxEdges+1)
			resealHeader(b)
			return b
		}},
		{"oversized rowptr section length", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[24+8:], uint64(rowLen)*2)
			resealHeader(b)
			return b
		}},
		{"oversized edge section length", func(b []byte) []byte {
			edgeLen := binary.LittleEndian.Uint64(b[24+24+8:])
			binary.LittleEndian.PutUint64(b[24+24+8:], edgeLen+csrEdgeRecBytes)
			resealHeader(b)
			return b
		}},
		{"declared edges beyond file end", func(b []byte) []byte {
			// A fully consistent header (sizes, section table, CRC all
			// resealed) that promises more payload than the file holds must
			// fail as a truncated section, not hang or over-allocate.
			m := binary.LittleEndian.Uint64(b[16:24]) + 1000
			binary.LittleEndian.PutUint64(b[16:24], m)
			binary.LittleEndian.PutUint64(b[24+24+8:], m*csrEdgeRecBytes)
			resealHeader(b)
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := tc.mut(append([]byte(nil), good...))
			_, err := ReadCSR("t", bytes.NewReader(bad))
			if err == nil {
				t.Fatalf("corrupt container accepted")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error not typed ErrCorrupt: %v", err)
			}
		})
	}
}

// TestReadCSRSingleByteFlips flips one byte at every offset of a valid
// container: the header CRC covers the header, the section CRCs cover the
// payloads, so every flip must surface as a typed ErrCorrupt.
func TestReadCSRSingleByteFlips(t *testing.T) {
	good := validContainer(t)
	for off := range good {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x01
		_, err := ReadCSR("t", bytes.NewReader(bad))
		if err == nil {
			t.Fatalf("flip at offset %d accepted", off)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at offset %d: error not typed ErrCorrupt: %v", off, err)
		}
	}
}

func TestBuildCSRFileMultiMillionEdges(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-edge build in -short mode")
	}
	// The large-tier acceptance path: stream-generate a multi-million-edge
	// R-MAT graph into the container and load it back, with the scatter
	// buffer capped at 512Ki edges (4 MiB) to prove the build never holds
	// the edge list.
	dir := t.TempDir()
	st := NewRMATStream("rmat-large", 1<<17, 16, DefaultRMAT, 64, 21)
	path := filepath.Join(dir, "large.csr")
	info, err := BuildCSRFile(path, st, BuildOptions{ChunkEdges: 512 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if info.NumEdges < 2_000_000 {
		t.Fatalf("generated %d edges, want multi-million", info.NumEdges)
	}
	g, err := ReadCSRFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != info.NumEdges || g.NumVertices() != 1<<17 {
		t.Fatalf("loaded V=%d E=%d, want V=%d E=%d",
			g.NumVertices(), g.NumEdges(), 1<<17, info.NumEdges)
	}
	// Spot-check structural sanity: row pointers are monotonic by
	// construction of the loader; degrees must sum to |E|.
	var deg int64
	for v := 0; v < g.NumVertices(); v++ {
		deg += g.OutDegree(VertexID(v))
	}
	if deg != g.NumEdges() {
		t.Fatalf("degree sum %d != |E| %d", deg, g.NumEdges())
	}
}

// readerSeeds is the container fuzz corpus: valid containers of a few
// shapes plus simple mutations, from which the fuzzer explores header and
// section corruption.
func readerSeeds(f *testing.F) [][]byte {
	var seeds [][]byte
	add := func(g *CSR) {
		dir := f.TempDir()
		path := filepath.Join(dir, "seed.csr")
		if err := WriteCSRFile(path, g); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	add(GenUniform("a", 20, 3, 8, 1))
	add(FromEdges("b", 1, nil))
	add(FromStream(NewRMATStream("c", 64, 4, DefaultRMAT, 4, 2)))
	seeds = append(seeds, []byte{}, bytes.Repeat([]byte{0xFF}, csrFileHeaderSize+32))
	// Corruption seeds park the fuzzer at each validation layer: truncation
	// boundaries, payload flips behind valid header CRCs, and a resealed
	// header promising more payload than the file carries.
	good := validContainer(f)
	seeds = append(seeds, good[:csrFileHeaderSize/2], good[:csrFileHeaderSize], good[:len(good)-3])
	flipped := append([]byte(nil), good...)
	flipped[csrFileHeaderSize] ^= 0x01
	seeds = append(seeds, flipped)
	oversized := append([]byte(nil), good...)
	m := binary.LittleEndian.Uint64(oversized[16:24]) + 1000
	binary.LittleEndian.PutUint64(oversized[16:24], m)
	binary.LittleEndian.PutUint64(oversized[24+24+8:], m*csrEdgeRecBytes)
	resealHeader(oversized)
	seeds = append(seeds, oversized)
	// A resealed header carrying the retired partitioned layout's flag bit
	// parks the fuzzer at the flag check.
	seeds = append(seeds, retiredLayoutContainer(f))
	// Payload tampering behind resealed checksums parks it at the
	// decoder's structural checks, which random mutation cannot reach
	// past a CRC32C: row pointers out of order, and a destination equal
	// to |V|. The mapped reader checks the row pointers in place, the
	// streaming one as it decodes them, so these also hold the two paths
	// to one verdict.
	unordered := append([]byte(nil), good...)
	row := unordered[csrFileHeaderSize:]
	binary.LittleEndian.PutUint64(row[8:], binary.LittleEndian.Uint64(row[16:])+1)
	resealSections(unordered)
	stray := append([]byte(nil), good...)
	edgeOff := binary.LittleEndian.Uint64(stray[24+24:])
	binary.LittleEndian.PutUint32(stray[edgeOff:], binary.LittleEndian.Uint32(stray[8:])) // dst = |V|
	resealSections(stray)
	return append(seeds, unordered, stray)
}

func FuzzReadCSR(f *testing.F) {
	for _, seed := range readerSeeds(f) {
		f.Add(seed)
	}
	// The loader must never panic; on success the invariants the simulator
	// relies on must hold.
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadCSR("fuzz", bytes.NewReader(data))
		if err != nil {
			return
		}
		n := g.NumVertices()
		m := g.NumEdges()
		if int64(len(g.Dst)) != m || int64(len(g.Weight)) != m || len(g.RowPtr) != n+1 {
			t.Fatalf("inconsistent arrays: V=%d E=%d |RowPtr|=%d |Dst|=%d |Weight|=%d",
				n, m, len(g.RowPtr), len(g.Dst), len(g.Weight))
		}
		prev := int64(0)
		for i, p := range g.RowPtr {
			if p < prev || p > m {
				t.Fatalf("RowPtr[%d]=%d out of order", i, p)
			}
			prev = p
		}
		for i, d := range g.Dst {
			if int(d) >= n {
				t.Fatalf("Dst[%d]=%d out of range %d", i, d, n)
			}
		}
	})
}
