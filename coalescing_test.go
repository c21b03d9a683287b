package nova

import (
	"context"
	"testing"

	"nova/graph"
	"nova/program"
)

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
				cfg := goldenNova(4, withWindow(window))
				cfg.Shards = 2
				acc, err := New(cfg)
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
			cfg := goldenNova(4, withWindow(window))
			cfg.Shards = shards
			acc, err := New(cfg)
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
