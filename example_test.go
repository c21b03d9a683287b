package nova_test

import (
	"context"
	"fmt"

	"nova"
	"nova/graph"
	"nova/internal/harness"
	"nova/program"
)

// Example runs breadth-first search on a small deterministic graph with a
// single-GPN NOVA system and verifies the result.
func Example() {
	// A diamond: 0 → {1,2} → 3.
	g := graph.FromEdges("diamond", 4, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1},
		{Src: 0, Dst: 2, Weight: 1},
		{Src: 1, Dst: 3, Weight: 1},
		{Src: 2, Dst: 3, Weight: 1},
	})
	acc, err := nova.New(nova.DefaultConfig())
	if err != nil {
		panic(err)
	}
	rep, err := acc.RunContext(context.Background(), program.NewBFS(0), g)
	if err != nil {
		panic(err)
	}
	fmt.Println("distances:", rep.Props[0], rep.Props[1], rep.Props[2], rep.Props[3])
	fmt.Println("verified:", nova.Verify("bfs", g, 0, rep.Props) == nil)
	// Output:
	// distances: 0 1 1 2
	// verified: true
}

// ExampleAccelerator_Engine shows the uniform workload harness running
// SSSP on both accelerator engines and comparing their work efficiency.
func ExampleAccelerator_Engine() {
	g := graph.GenRMAT("demo", 10, 8, graph.DefaultRMAT, 16, 7)
	w := harness.Workload{Name: "sssp", G: g, Root: g.LargestOutDegreeVertex()}

	acc, _ := nova.New(nova.DefaultConfig())
	pg := &nova.PolyGraphBaseline{ForceSlices: 4}

	a, _ := acc.Engine().RunWorkload(context.Background(), w)
	b, _ := pg.Engine().RunWorkload(context.Background(), w)

	fmt.Println("same answers:", equalProps(a.Props, b.Props))
	fmt.Println("nova work efficiency higher:", a.WorkEfficiency() > b.WorkEfficiency())
	// Output:
	// same answers: true
	// nova work efficiency higher: true
}

func equalProps(a, b []program.Prop) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ExampleSoftware runs the Ligra-style software baseline on the host.
func ExampleSoftware() {
	g := graph.FromEdges("chain", 3, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1},
		{Src: 1, Dst: 2, Weight: 1},
	})
	sw := &nova.Software{Threads: 1}
	rep, err := sw.Engine().RunWorkload(context.Background(), harness.Workload{Name: "bfs", G: g, Root: 0})
	if err != nil {
		panic(err)
	}
	fmt.Println("distances:", rep.Props)
	// Output:
	// distances: [0 1 2]
}
