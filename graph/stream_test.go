package graph

import (
	"testing"
)

// collect drains a stream from a fresh Reset.
func collect(st EdgeStream) []Edge {
	st.Reset()
	var out []Edge
	for {
		e, ok := st.Next()
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

func TestStreamDeterminismAndReset(t *testing.T) {
	streams := []EdgeStream{
		NewRMATStream("rmat", 1000, 8, DefaultRMAT, 64, 42),
		NewUniformStream("urand", 1000, 8, 64, 42),
		NewGridStream("grid", 20, 30, 0.39, 64, 42),
	}
	for _, st := range streams {
		a := collect(st)
		b := collect(st) // after Reset: identical sequence
		if m := FromStream(st).NumEdges(); int64(len(a)) != m {
			t.Errorf("%s: emitted %d edges, FromStream built %d", st.Name(), len(a), m)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: replay emitted %d edges, want %d", st.Name(), len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: replay diverges at edge %d: %v vs %v", st.Name(), i, a[i], b[i])
			}
		}
		n := st.NumVertices()
		for i, e := range a {
			if int(e.Src) >= n || int(e.Dst) >= n {
				t.Fatalf("%s: edge %d endpoint out of range: %v (n=%d)", st.Name(), i, e, n)
			}
			if e.Weight == 0 || e.Weight > 64 {
				t.Fatalf("%s: edge %d weight %d out of [1,64]", st.Name(), i, e.Weight)
			}
		}
		// Exhausted streams stay exhausted until Reset.
		if _, ok := st.Next(); ok {
			t.Errorf("%s: Next after exhaustion returned an edge", st.Name())
		}
	}
}

func TestStreamSeedsDiffer(t *testing.T) {
	a := collect(NewRMATStream("a", 512, 8, DefaultRMAT, 64, 1))
	b := collect(NewRMATStream("b", 512, 8, DefaultRMAT, 64, 2))
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical edge sequences")
	}
}

func TestVertexMixBijective(t *testing.T) {
	for _, bits := range []int{1, 3, 10} {
		m := newVertexMix(bits, 7)
		n := 1 << bits
		seen := make([]bool, n)
		for v := 0; v < n; v++ {
			p := m.apply(uint64(v))
			if p >= uint64(n) {
				t.Fatalf("bits=%d: mix(%d)=%d escapes the domain", bits, v, p)
			}
			if seen[p] {
				t.Fatalf("bits=%d: mix is not injective at %d", bits, v)
			}
			seen[p] = true
		}
	}
}

func TestGridStreamMatchesGenGrid(t *testing.T) {
	// The grid stream draws from the rng in GenGrid's exact order, so the
	// built CSRs must be identical field for field.
	want := GenGrid("grid", 17, 23, 0.39, 64, 9)
	got := FromStream(NewGridStream("grid", 17, 23, 0.39, 64, 9))
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("V/E mismatch: got %v, want %v", got, want)
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

func TestFromStreamMatchesEdgeOrder(t *testing.T) {
	// FromStream must bucket edges exactly like FromEdges over the same
	// sequence (stable within each source vertex).
	st := NewRMATStream("rmat", 300, 6, DefaultRMAT, 16, 5)
	want := FromEdges("rmat", st.NumVertices(), collect(st))
	got := FromStream(st)
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("E: got %d, want %d", got.NumEdges(), want.NumEdges())
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("RowPtr[%d]: got %d, want %d", i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for i := range want.Dst {
		if got.Dst[i] != want.Dst[i] || got.Weight[i] != want.Weight[i] {
			t.Fatalf("edge %d mismatch", i)
		}
	}
}

func TestRMATStreamHeavyTail(t *testing.T) {
	g := FromStream(NewRMATStream("rmat", 4096, 16, DefaultRMAT, 1, 3))
	if g.MaxDegree() < 4*int64(g.AvgDegree()) {
		t.Errorf("R-MAT degree distribution suspiciously flat: max %d, avg %.1f",
			g.MaxDegree(), g.AvgDegree())
	}
}
