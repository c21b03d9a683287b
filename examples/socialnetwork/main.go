// Socialnetwork compares the three engines of the paper's Fig. 4 — the
// NOVA accelerator, the PolyGraph temporal-partitioning baseline, and the
// Ligra-style software framework — on a Twitter-like power-law graph,
// running BFS (asynchronous) and PageRank (bulk-synchronous).
//
// This is the paper's motivating scenario: the graph's 4 B-per-vertex
// working set no longer fits PolyGraph's scratchpad, so PolyGraph slices
// it temporally while NOVA spills active vertices to DRAM instead.
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
	g := graph.GenRMATN("twitter-like", 40_000, 35, graph.DefaultRMAT, 64, 12)
	root := g.LargestOutDegreeVertex()
	fmt.Printf("graph: %v\n\n", g)

	acc, err := nova.New(novaCfg())
	if err != nil {
		log.Fatal(err)
	}
	// Iso-bandwidth baseline: 332.8 GB/s unified, scratchpad sized so
	// this graph needs ~5 temporal slices, as in the paper's Table III.
	pg := &nova.PolyGraphBaseline{OnChipBytes: 4 * 40_000 / 5}
	engines := []harness.Engine{acc.Engine(), pg.Engine(), (&nova.Software{}).Engine()}

	fmt.Printf("%-10s %-6s %14s %14s %12s\n", "engine", "wkld", "time(ms)", "work-eff", "eff-GTEPS")
	for _, w := range []string{"bfs", "pr"} {
		cell := harness.Workload{Name: w, G: g, Root: root, PRIters: 10}
		secs := map[string]float64{} // simulated seconds by engine
		for _, eng := range engines {
			rep, err := eng.RunWorkload(context.Background(), cell)
			if err != nil {
				log.Fatal(err)
			}
			if rep.Engine == "ligra" {
				fmt.Printf("%-10s %-6s %14.3f %14s %12s\n", rep.Engine, w, rep.Stats.SimSeconds*1e3, "-",
					fmt.Sprintf("%.3f*", rep.Stats.TEPS()/1e9))
				continue
			}
			fmt.Printf("%-10s %-6s %14.3f %14.3f %12.3f\n",
				rep.Engine, w, rep.Stats.SimSeconds*1e3, rep.WorkEfficiency(), rep.EffectiveGTEPS())
			secs[rep.Engine] = rep.Stats.SimSeconds
		}
		fmt.Printf("  -> NOVA vs PolyGraph speedup: %.2fx\n\n", secs["polygraph"]/secs["nova"])
	}
	fmt.Println("* ligra reports wall-clock raw GTEPS on this host, not simulated time")
}

func novaCfg() nova.Config {
	cfg := nova.DefaultConfig()
	// Scale the MPU cache with the scaled graph so it stays far smaller
	// than the vertex set, as in the paper.
	cfg.CacheBytesPerPE = 2 << 10
	return cfg
}
