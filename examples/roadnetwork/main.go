// Roadnetwork runs weighted shortest paths on a high-diameter road-like
// grid and shows the vertex management unit's behaviour on sparse
// frontiers: active vertices are spread thinly across memory, so the
// tracker's superblock-granularity recovery reads many inactive blocks —
// the wasteful-bandwidth effect of the paper's Fig. 10 — and the tracker
// size (superblock dimension) trades on-chip capacity against that waste.
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
	// RoadUSA stand-in: a 2D grid with 39% of edges removed gives the
	// high diameter and ~2.4 average degree of road networks.
	g := graph.GenGrid("road", 180, 140, 0.39, 64, 11)
	root := g.LargestOutDegreeVertex()
	fmt.Printf("graph: %v (high diameter, sparse frontiers)\n\n", g)

	fmt.Printf("%-8s %10s %10s %10s %10s %10s\n",
		"sb-dim", "tracker", "time(ms)", "useful", "write", "wasteful")
	for _, dim := range []int{32, 64, 128, 256} {
		cfg := nova.DefaultConfig()
		cfg.CacheBytesPerPE = 1 << 10
		cfg.SuperblockDim = dim
		acc, err := nova.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := acc.RunContext(context.Background(), program.NewSSSP(root), g)
		if err != nil {
			log.Fatal(err)
		}
		if err := nova.Verify("sssp", g, root, rep.Props); err != nil {
			log.Fatal(err)
		}
		// Tracker capacity per Eq. 1/2 for one PE's share.
		fmt.Printf("%-8d %9db %10.3f %9.1f%% %9.1f%% %9.1f%%\n",
			dim, rep.OnChipBytes,
			rep.Stats.SimSeconds*1e3,
			100*rep.VertexUsefulFrac, 100*rep.VertexWriteFrac, 100*rep.VertexWastefulFrac)
	}
	fmt.Println("\nSSSP distances verified against Dijkstra at every tracker size.")
	fmt.Println("Larger superblocks shrink the tracker but cannot pinpoint sparse")
	fmt.Println("active vertices, so recovery reads more inactive blocks (wasteful).")
}
