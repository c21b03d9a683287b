// Customalgorithm shows how to express a new workload in NOVA's
// reduce/propagate programming model and run it unchanged on the
// simulated accelerator, the PolyGraph baseline and the functional
// executor.
//
// The algorithm is single-source widest path (maximum-bottleneck path):
// the "width" of a path is its minimum edge weight, and each vertex wants
// the widest path from the source. It is monotone under max-of-min, so it
// runs asynchronously exactly like SSSP runs under min-of-plus.
package main

import (
	"context"
	"fmt"
	"log"

	"nova"
	"nova/graph"
	"nova/program"
)

// widest implements program.Program.
type widest struct {
	root graph.VertexID
}

func (widest) Name() string       { return "widest-path" }
func (widest) Mode() program.Mode { return program.Async }

// InitProp: the source has infinite width; everyone else none.
func (w widest) InitProp(v graph.VertexID, g *graph.CSR) program.Prop {
	if v == w.root {
		return program.Prop(^uint64(0)) // +inf width
	}
	return 0
}

func (w widest) InitActive(g *graph.CSR) []graph.VertexID {
	return []graph.VertexID{w.root}
}

// Reduce keeps the widest offer.
func (widest) Reduce(_ graph.VertexID, cur, delta program.Prop) program.Prop {
	if delta > cur {
		return delta
	}
	return cur
}

// Propagate narrows the path width by the edge's weight.
func (widest) Propagate(prop program.Prop, weight uint32, _ int64) (program.Prop, bool) {
	if prop == 0 {
		return 0, false
	}
	wp := program.Prop(weight)
	if wp < prop {
		return wp, true
	}
	return prop, true
}

func main() {
	g := graph.GenRMATN("net", 20_000, 16, graph.DefaultRMAT, 100, 5)
	root := g.LargestOutDegreeVertex()
	prog := widest{root}

	// Reference semantics from the functional executor.
	want, _ := program.Exec(prog, g)

	// The same program on the simulated NOVA accelerator...
	cfg := nova.DefaultConfig()
	cfg.CacheBytesPerPE = 1 << 10
	acc, err := nova.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := acc.RunContext(context.Background(), prog, g)
	if err != nil {
		log.Fatal(err)
	}
	mismatches := 0
	for v := range want {
		if rep.Props[v] != want[v] {
			mismatches++
		}
	}
	fmt.Printf("NOVA:      %.3f ms simulated, %d edges traversed, %d mismatches vs executor\n",
		rep.Stats.SimSeconds*1e3, rep.Stats.EdgesTraversed, mismatches)

	// ...and on the PolyGraph baseline.
	pg := &nova.PolyGraphBaseline{ForceSlices: 4}
	pgRep, err := pg.RunContext(context.Background(), prog, g)
	if err != nil {
		log.Fatal(err)
	}
	for v := range want {
		if pgRep.Props[v] != want[v] {
			log.Fatalf("polygraph disagrees at vertex %d", v)
		}
	}
	fmt.Printf("PolyGraph: %.3f ms simulated, %d edges traversed, slices=%d\n",
		pgRep.Stats.SimSeconds*1e3, pgRep.Stats.EdgesTraversed, int(pgRep.Metric(nova.MetricSliceCount)))

	// Widest path from the hub to a few sample vertices.
	fmt.Println("\nsample widest-path widths from the hub:")
	shown := 0
	for v := 0; v < g.NumVertices() && shown < 5; v++ {
		if want[v] > 0 && graph.VertexID(v) != root && want[v] != program.Prop(^uint64(0)) {
			fmt.Printf("  vertex %6d: width %d\n", v, want[v])
			shown++
		}
	}
	if mismatches == 0 {
		fmt.Println("\ncustom program verified: accelerator == functional executor")
	}
}
