package nova

import (
	"context"
	"fmt"
	"testing"

	"nova/graph"
	"nova/program"
)

// topoGoldens pins crossbar SSSP cells at 4 and 8 GPNs, with coalescing
// off and at 16- and 64-cycle windows, to golden cycle, work and event
// counts. Every worker count must reproduce them exactly, like
// TestShardedDeterminismGolden does for the default 4-GPN cell. The
// window-64 rows gate coalescing's payoff: they run fewer simulator
// events than the window-0 row of the same size. The 8-GPN rows have the
// most crossbar port contention.
var topoGoldens = []struct {
	gpns      int
	window    int64
	cycles    uint64
	edges     int64
	coalesced uint64 // network-level (fabric) coalesced batches
	events    uint64 // simulator events executed across all shards
}{
	{4, 0, goldenShardCycles, 27274, 0, 45232},
	{4, 16, 20723, 27673, 1441, 47748},
	{4, 64, 20382, 27841, 3193, 42737},
	{8, 0, 11881, 29988, 0, 52805},
	{8, 64, 12884, 30278, 5323, 48893},
}

func topoCellConfig(gpns int, window int64, shards int) Config {
	cfg := DefaultConfig()
	cfg.GPNs = gpns
	cfg.PEsPerGPN = 2
	cfg.CacheBytesPerPE = 8 << 10
	cfg.Seed = 3
	cfg.Shards = shards
	cfg.CoalesceWindow = window
	return cfg
}

// TestTopologyShardDeterminismGolden is TestShardedDeterminismGolden
// extended over the GPN count × coalescing grid of the crossbar: each
// cell must be bit-identical at 1, 2 and 4 workers and match its pinned
// golden.
func TestTopologyShardDeterminismGolden(t *testing.T) {
	uncoalesced := map[int]uint64{}
	for _, gold := range topoGoldens {
		if gold.window == 0 {
			uncoalesced[gold.gpns] = gold.events
		}
	}
	for _, gold := range topoGoldens {
		if gold.window == 64 && gold.events >= uncoalesced[gold.gpns] {
			t.Errorf("%d GPNs: window 64 runs %d events, window 0 runs %d; coalescing must cut events",
				gold.gpns, gold.events, uncoalesced[gold.gpns])
		}
	}
	g := graph.GenRMATN("golden", 2048, 8, graph.DefaultRMAT, 64, 7)
	root := g.LargestOutDegreeVertex()
	for _, gold := range topoGoldens {
		name := "crossbar"
		if gold.gpns != 4 {
			name = fmt.Sprintf("%s-gpns%d", name, gold.gpns)
		}
		if gold.window > 0 {
			name = fmt.Sprintf("%s-coalesce%d", name, gold.window)
		}
		t.Run(name, func(t *testing.T) {
			for _, shards := range []int{1, 2, 4} {
				acc, err := New(topoCellConfig(gold.gpns, gold.window, shards))
				if err != nil {
					t.Fatal(err)
				}
				rep, err := acc.RunContext(context.Background(), program.NewSSSP(root), g)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				events, _ := rep.Dump.Value(MetricEventsExecuted)
				t.Logf("shards=%d: cycles=%d edges=%d netcoalesced=%d events=%.0f",
					shards, rep.Cycles, rep.Stats.EdgesTraversed,
					rep.NetworkMessagesCoalesced, events)
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
// bit-identical, while actually coalescing traffic.
func TestCoalescingBitIdentical(t *testing.T) {
	g := graph.GenRMATN("coal", 2048, 8, graph.DefaultRMAT, 64, 11)
	root := g.LargestOutDegreeVertex()
	progs := map[string]func() program.Program{
		"bfs":  func() program.Program { return program.NewBFS(root) },
		"sssp": func() program.Program { return program.NewSSSP(root) },
		"cc":   func() program.Program { return program.NewCC() },
	}
	for wname, mk := range progs {
		t.Run("crossbar/"+wname, func(t *testing.T) {
			// cc runs on the symmetrized view, as every caller runs it.
			gw := g
			if wname == "cc" {
				gw = g.Symmetrize()
			}
			run := func(window int64) *Report {
				acc, err := New(topoCellConfig(4, window, 2))
				if err != nil {
					t.Fatal(err)
				}
				rep, err := acc.RunContext(context.Background(), mk(), gw)
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

// TestCoalescingConservation asserts the fabric's message-conservation
// invariant end to end: every batch the MGUs offer is either sent or
// coalesced, so messages + messages_coalesced is an exact function of the
// cell — identical at every worker count. (The absolute count differs per
// window: asynchronous traversal order, and therefore the offered load
// itself, depends on delivery timing. The strict form of the invariant
// under a fixed offered load is asserted by the network package's
// TestConservationInvariant.)
func TestCoalescingConservation(t *testing.T) {
	g := graph.GenRMATN("conserve", 2048, 8, graph.DefaultRMAT, 64, 7)
	root := g.LargestOutDegreeVertex()
	for _, window := range []int64{0, 16} {
		var baseline int64 = -1
		for _, shards := range []int{1, 2, 4} {
			acc, err := New(topoCellConfig(4, window, shards))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := acc.RunContext(context.Background(), program.NewSSSP(root), g)
			if err != nil {
				t.Fatalf("w%d/shards=%d: %v", window, shards, err)
			}
			bag := rep.Dump.Bag()
			total := int64(bag["network.messages"]) + int64(bag["network.messages_coalesced"])
			if window == 0 && bag["network.messages_coalesced"] != 0 {
				t.Errorf("w0: coalesced %v batches with coalescing off", bag["network.messages_coalesced"])
			}
			if baseline < 0 {
				baseline = total
				t.Logf("w%d: batches offered: %d", window, baseline)
			}
			if total != baseline {
				t.Errorf("w%d/shards=%d: messages+coalesced = %d, want %d",
					window, shards, total, baseline)
			}
		}
	}
}
