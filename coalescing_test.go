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
			if on, off := on.Metric(MetricNetworkInterBytes), off.Metric(MetricNetworkInterBytes); on >= off {
				t.Errorf("coalescing did not reduce inter-GPN bytes: on=%v off=%v", on, off)
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
