// Quickstart: build a graph, run BFS on a simulated single-GPN NOVA
// accelerator, verify the result, and print throughput.
package main

import (
	"context"
	"fmt"
	"log"

	"nova"
	"nova/graph"
	"nova/program"
)

func main() {
	// A Twitter-like power-law graph: 2^14 vertices, average degree 16.
	g := graph.GenRMAT("social", 14, 16, graph.DefaultRMAT, 1, 42)
	root := g.LargestOutDegreeVertex()
	fmt.Printf("graph: %v, BFS root %d\n", g, root)

	// A single graph processing node with Table II's organization:
	// 8 PEs, one HBM2 vertex channel each, four shared DDR4 edge
	// channels, the superblock tracker and an 80-entry active buffer.
	acc, err := nova.New(nova.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	rep, err := acc.RunContext(context.Background(), program.NewBFS(root), g)
	if err != nil {
		log.Fatal(err)
	}
	if err := nova.Verify("bfs", g, root, rep.Props); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("simulated %.3f ms (%d cycles at 2 GHz)\n",
		rep.Stats.SimSeconds*1e3, rep.Cycles)
	fmt.Printf("throughput: %.2f GTEPS, edge-memory utilization %.0f%%\n",
		rep.GTEPS(g), 100*rep.EdgeUtilization)
	fmt.Printf("messages: %d sent, %.0f%% coalesced before propagation\n",
		rep.Stats.MessagesSent,
		100*float64(rep.Stats.MessagesCoalesced)/float64(rep.Stats.MessagesSent))
	fmt.Println("BFS result verified against the sequential oracle")
}
