package graph

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestReadEdgeList(t *testing.T) {
	in := `# comment
% another comment
0 1 5
1 2
2 0 3

3 3 1
`
	g, err := ReadEdgeList("t", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	// Missing weight defaults to 1.
	if w := g.Weight[g.RowPtr[1]]; w != 1 {
		t.Fatalf("default weight = %d", w)
	}
	for _, bad := range []string{"0", "x 1", "0 y", "0 1 z", "0 1 0"} {
		if _, err := ReadEdgeList("t", strings.NewReader(bad)); err == nil {
			t.Errorf("malformed line %q accepted", bad)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		g := FromEdges("t", n, randEdges(rng, n, rng.Intn(150)))
		var text strings.Builder
		for _, e := range g.Edges() {
			fmt.Fprintf(&text, "%d\t%d\t%d\n", e.Src, e.Dst, e.Weight)
		}
		back, err := ReadEdgeList("t", strings.NewReader(text.String()))
		if err != nil {
			return false
		}
		// The read-back graph may have fewer vertices (trailing isolated
		// vertices have no edges); edges must match exactly.
		a, b := g.Edges(), back.Edges()
		if len(a) != len(b) {
			return false
		}
		sortEdges(a)
		sortEdges(b)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
