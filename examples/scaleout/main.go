// Scaleout demonstrates the paper's Section IV claim: because each vertex
// lives on exactly one PE and GPNs never touch each other's memory, NOVA
// scales by adding GPNs — strong scaling on a fixed graph, and weak
// scaling where the graph doubles with the machine.
package main

import (
	"context"
	"fmt"
	"log"

	"nova"
	"nova/graph"
	"nova/internal/harness"
)

func main() {
	fmt.Println("strong scaling: fixed graph, growing machine (BFS)")
	g := graph.GenRMAT("fixed", 15, 16, graph.DefaultRMAT, 1, 3)
	root := g.LargestOutDegreeVertex()
	fmt.Printf("graph: %v\n", g)
	var base float64
	for _, gpns := range []int{1, 2, 4, 8} {
		secs := runBFS(g, root, gpns)
		if gpns == 1 {
			base = secs
		}
		fmt.Printf("  %d GPNs (%2d PEs): %8.3f ms  speedup %.2fx (ideal %d.00x)\n",
			gpns, gpns*8, secs*1e3, base/secs, gpns)
	}

	fmt.Println("\nweak scaling: graph doubles with the machine (BFS, RMAT series)")
	for i, gpns := range []int{1, 2, 4, 8} {
		scale := 13 + i
		wg := graph.GenRMAT(fmt.Sprintf("rmat%d", scale), scale, 16, graph.DefaultRMAT, 1, int64(scale))
		secs := runBFS(wg, wg.LargestOutDegreeVertex(), gpns)
		if i == 0 {
			base = secs
		}
		fmt.Printf("  %d GPNs on %8d edges: %8.3f ms  (vs 1-GPN baseline %.2fx; ideal 1.00x)\n",
			gpns, wg.NumEdges(), secs*1e3, secs/base)
	}
	fmt.Println("\nideal weak scaling keeps time constant; the paper reports no degradation")
}

func runBFS(g *graph.CSR, root graph.VertexID, gpns int) float64 {
	cfg := nova.DefaultConfig()
	cfg.GPNs = gpns
	cfg.CacheBytesPerPE = 1 << 10
	acc, err := nova.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := acc.Engine().RunWorkload(context.Background(), harness.Workload{Name: "bfs", G: g, Root: root})
	if err != nil {
		log.Fatal(err)
	}
	return rep.Stats.SimSeconds
}
