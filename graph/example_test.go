package graph_test

import (
	"fmt"
	"strings"

	"nova/graph"
)

// ExampleFromEdges builds a CSR from an edge list and inspects it.
func ExampleFromEdges() {
	g := graph.FromEdges("triangle", 3, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 2},
		{Src: 1, Dst: 2, Weight: 3},
		{Src: 2, Dst: 0, Weight: 4},
	})
	fmt.Println(g)
	fmt.Println("neighbors of 1:", g.Neighbors(1))
	// Output:
	// triangle{V=3 E=3 deg=1.0}
	// neighbors of 1: [2]
}

// ExampleReadEdgeList parses a SNAP-style text edge list.
func ExampleReadEdgeList() {
	const data = `# a tiny graph
0 1 5
1 2
`
	g, err := graph.ReadEdgeList("tiny", strings.NewReader(data))
	if err != nil {
		panic(err)
	}
	fmt.Println(g.NumVertices(), g.NumEdges(), g.Weight[g.RowPtr[0]], g.Weight[g.RowPtr[1]])
	// Output:
	// 3 2 5 1
}

// ExamplePartitionInterleave shows the zero-preprocessing vertex mapping.
func ExamplePartitionInterleave() {
	p := graph.PartitionInterleave(6, 2)
	fmt.Println(p.Owner)
	// Output:
	// [0 1 0 1 0 1]
}
