package nova

import (
	"context"
	"fmt"
	"testing"

	"nova/graph"
	"nova/program"
)

// topoGoldens pins 4-GPN SSSP cells per inter-GPN topology, with
// coalescing off, at a 16-cycle window (crossbar) and at a 64-cycle
// window, to golden cycle, work and event counts. Every worker count must
// reproduce them exactly, like TestShardedDeterminismGolden does for the
// default crossbar. The window-64 rows gate coalescing's payoff: on every
// topology they run fewer simulator events than the window-0 row.
var topoGoldens = []struct {
	topology  string
	window    int64
	cycles    uint64
	edges     int64
	coalesced uint64 // network-level (fabric) coalesced batches
	events    uint64 // simulator events executed across all shards
}{
	{"crossbar", 0, goldenShardCycles, int64(27274), 0, 45232},
	{"ring", 0, 17353, 26748, 0, 44698},
	{"mesh", 0, 17716, 26728, 0, 44723},
	// A 4-GPN torus is a 2×2 grid whose wrap links coincide with the mesh
	// links, so its goldens equal the mesh's by construction.
	{"torus", 0, 17716, 26728, 0, 44723},
	{"crossbar", 16, 20723, 27673, 1441, 47748},
	{"crossbar", 64, 20382, 27841, 3193, 42737},
	{"ring", 64, 17738, 27120, 3216, 40641},
	{"mesh", 64, 17780, 26792, 3178, 40491},
	{"torus", 64, 17780, 26792, 3178, 40491},
}

func topoCellConfig(topology string, window int64, shards int) Config {
	cfg := DefaultConfig()
	cfg.GPNs = 4
	cfg.PEsPerGPN = 2
	cfg.CacheBytesPerPE = 8 << 10
	cfg.Seed = 3
	cfg.Shards = shards
	cfg.Topology = topology
	cfg.CoalesceWindow = window
	return cfg
}

// TestTopologyShardDeterminismGolden is TestShardedDeterminismGolden
// extended over the inter-GPN topology × coalescing grid: each cell must
// be bit-identical at 1, 2 and 4 workers and match its pinned golden.
func TestTopologyShardDeterminismGolden(t *testing.T) {
	uncoalesced := map[string]uint64{}
	for _, gold := range topoGoldens {
		if gold.window == 0 {
			uncoalesced[gold.topology] = gold.events
		}
	}
	for _, gold := range topoGoldens {
		if gold.window == 64 && gold.events >= uncoalesced[gold.topology] {
			t.Errorf("%s: window 64 runs %d events, window 0 runs %d; coalescing must cut events",
				gold.topology, gold.events, uncoalesced[gold.topology])
		}
	}
	g := graph.GenRMATN("golden", 2048, 8, graph.DefaultRMAT, 64, 7)
	root := g.LargestOutDegreeVertex()
	for _, gold := range topoGoldens {
		name := gold.topology
		if gold.window > 0 {
			name = fmt.Sprintf("%s-coalesce%d", gold.topology, gold.window)
		}
		t.Run(name, func(t *testing.T) {
			for _, shards := range []int{1, 2, 4} {
				acc, err := New(topoCellConfig(gold.topology, gold.window, shards))
				if err != nil {
					t.Fatal(err)
				}
				rep, err := acc.RunContext(context.Background(), program.NewSSSP(root), g)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				events, _ := rep.Dump.Value(MetricEventsExecuted)
				t.Logf("shards=%d: cycles=%d edges=%d netcoalesced=%d events=%.0f avghops=%.3f",
					shards, rep.Cycles, rep.Stats.EdgesTraversed,
					rep.NetworkMessagesCoalesced, events, rep.NetworkAvgHops)
				if rep.Cycles != gold.cycles {
					t.Errorf("shards=%d: cycles = %d, golden %d", shards, rep.Cycles, gold.cycles)
				}
				if rep.Stats.EdgesTraversed != gold.edges {
					t.Errorf("shards=%d: edges = %d, golden %d", shards, rep.Stats.EdgesTraversed, gold.edges)
				}
				if rep.NetworkMessagesCoalesced != gold.coalesced {
					t.Errorf("shards=%d: fabric coalesced = %d, golden %d",
						shards, rep.NetworkMessagesCoalesced, gold.coalesced)
				}
				if uint64(events) != gold.events {
					t.Errorf("shards=%d: events = %.0f, golden %d", shards, events, gold.events)
				}
				if err := Verify("sssp", g, root, rep.Props); err != nil {
					t.Errorf("shards=%d: %v", shards, err)
				}
			}
		})
	}
}

// TestCoalescingBitIdentical is the correctness property of the in-fabric
// coalescing stage: for the exactly-mergeable monotone workloads (BFS,
// SSSP, CC — min-reduce, so merging in-flight deltas commutes with
// delivery), enabling coalescing must leave every verified vertex value
// bit-identical on every topology, while actually coalescing traffic.
func TestCoalescingBitIdentical(t *testing.T) {
	g := graph.GenRMATN("coal", 2048, 8, graph.DefaultRMAT, 64, 11)
	root := g.LargestOutDegreeVertex()
	progs := map[string]func() program.Program{
		"bfs":  func() program.Program { return program.NewBFS(root) },
		"sssp": func() program.Program { return program.NewSSSP(root) },
		"cc":   func() program.Program { return program.NewCC() },
	}
	for _, topology := range []string{"crossbar", "ring", "mesh", "torus"} {
		for wname, mk := range progs {
			t.Run(topology+"/"+wname, func(t *testing.T) {
				run := func(window int64) *Report {
					acc, err := New(topoCellConfig(topology, window, 2))
					if err != nil {
						t.Fatal(err)
					}
					rep, err := acc.RunContext(context.Background(), mk(), g)
					if err != nil {
						t.Fatal(err)
					}
					return rep
				}
				off := run(0)
				on := run(16)
				if on.NetworkMessagesCoalesced == 0 {
					t.Error("coalescing enabled but no batches coalesced")
				}
				if off.NetworkMessagesCoalesced != 0 {
					t.Errorf("coalescing disabled but %d batches coalesced", off.NetworkMessagesCoalesced)
				}
				if on.NetworkInterBytes >= off.NetworkInterBytes {
					t.Errorf("coalescing did not reduce inter-GPN bytes: on=%d off=%d",
						on.NetworkInterBytes, off.NetworkInterBytes)
				}
				for v := range off.Props {
					if off.Props[v] != on.Props[v] {
						t.Fatalf("vertex %d: off=%d on=%d", v, off.Props[v], on.Props[v])
					}
				}
				if err := Verify(wname, g, root, on.Props); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestCoalescingConservation asserts the fabric's message-conservation
// invariant end to end: every batch the MGUs offer is either sent or
// coalesced, so messages + messages_coalesced is an exact function of the
// cell — identical at every worker count. (The absolute count differs per
// topology and window: asynchronous traversal order, and therefore the
// offered load itself, depends on delivery timing. The strict
// cross-topology form of the invariant under a fixed offered load is
// asserted by the network package's TestConservationInvariant.)
func TestCoalescingConservation(t *testing.T) {
	g := graph.GenRMATN("conserve", 2048, 8, graph.DefaultRMAT, 64, 7)
	root := g.LargestOutDegreeVertex()
	for _, topology := range []string{"crossbar", "ring", "mesh", "torus"} {
		for _, window := range []int64{0, 16} {
			var baseline int64 = -1
			for _, shards := range []int{1, 2, 4} {
				acc, err := New(topoCellConfig(topology, window, shards))
				if err != nil {
					t.Fatal(err)
				}
				rep, err := acc.RunContext(context.Background(), program.NewSSSP(root), g)
				if err != nil {
					t.Fatalf("%s/w%d/shards=%d: %v", topology, window, shards, err)
				}
				bag := rep.Dump.Bag()
				total := int64(bag["network.messages"]) + int64(bag["network.messages_coalesced"])
				if window == 0 && bag["network.messages_coalesced"] != 0 {
					t.Errorf("%s/w0: coalesced %v batches with coalescing off", topology, bag["network.messages_coalesced"])
				}
				if baseline < 0 {
					baseline = total
					t.Logf("%s/w%d: batches offered: %d", topology, window, baseline)
				}
				if total != baseline {
					t.Errorf("%s/w%d/shards=%d: messages+coalesced = %d, want %d",
						topology, window, shards, total, baseline)
				}
			}
		}
	}
}
