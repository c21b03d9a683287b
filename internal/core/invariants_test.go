package core

import (
	"context"
	"testing"

	"nova/graph"
	"nova/internal/ref"
	"nova/internal/sim"
	"nova/program"
)

// TestMidRunTrackerInvariants schedules a recurring checker INSIDE the
// simulation that verifies, at many points during execution:
//
//  1. every superblock counter equals the number of tracked bits in it;
//  2. every active (flagged) vertex is reachable: its block is in the
//     active buffer, tracked in memory, in flight in a prefetch, or its
//     PE has pending recovery work — the paper's deadlock-freedom
//     condition;
//  3. counters never go negative.
func TestMidRunTrackerInvariants(t *testing.T) {
	g := randGraph(99, 400, 3000)
	cfg := testConfig()
	cfg.ActiveBufferEntries = 8
	cfg.PrefetchBatch = 4
	sys, err := NewSystem(cfg, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	checks := 0
	var check func()
	check = func() {
		checks++
		for _, pe := range sys.pes {
			u := pe.vmu
			// (1) counter consistency.
			perSB := make([]int32, len(u.counters))
			total := 0
			for bi := 0; bi < pe.numBlocks(); bi++ {
				if u.tracked.get(bi) {
					perSB[bi/cfg.SuperblockDim]++
					total++
				}
			}
			for sb, c := range u.counters {
				if c != perSB[sb] {
					t.Fatalf("PE %d superblock %d: counter %d != tracked bits %d",
						pe.id, sb, c, perSB[sb])
				}
				if c < 0 {
					t.Fatalf("PE %d superblock %d: negative counter", pe.id, sb)
				}
			}
			if total != u.trackedTotal {
				t.Fatalf("PE %d: trackedTotal %d != bits %d", pe.id, u.trackedTotal, total)
			}
		}
		// (2) every flagged vertex is recoverable.
		for v := 0; v < g.NumVertices(); v++ {
			if !sys.activeFlag[v] {
				continue
			}
			pe := sys.pes[sys.part.Owner[v]]
			u := pe.vmu
			bi := pe.blockIndex(pe.vertexBlockAddr(graph.VertexID(v)))
			if !u.inBuffer.get(bi) && !u.tracked.get(bi) && u.inflightPrefetch == 0 &&
				!pe.cache.Contains(pe.vertexBlockAddr(graph.VertexID(v))) {
				t.Fatalf("active vertex %d unreachable: not buffered, tracked, cached or in flight", v)
			}
		}
		pending := 0
		for _, e := range sys.engines {
			pending += e.Pending()
		}
		if pending > 0 { // this checker already popped; any event counts
			sys.Engine().ScheduleFunc(sim.Ticks(500), check)
		}
	}
	sys.Engine().ScheduleFunc(100, check)
	if _, err := sys.Run(context.Background(), program.NewSSSP(g.LargestOutDegreeVertex())); err != nil {
		t.Fatal(err)
	}
	if checks < 10 {
		t.Fatalf("checker ran only %d times; the run was too short to exercise invariants", checks)
	}
}

// TestBSPEpochBarrierAdvancesTime verifies the apply sweep costs time:
// a PR run must spend strictly more cycles than epochs alone demand and
// produce monotone simulated time across epochs.
func TestBSPEpochBarrierAdvancesTime(t *testing.T) {
	g := randGraph(4, 200, 1200)
	res := runOn(t, testConfig(), g, program.NewPageRank(0.85, 4))
	if res.Stats.Epochs != 4 {
		t.Fatalf("epochs = %d", res.Stats.Epochs)
	}
	if res.Ticks < 4 {
		t.Fatal("BSP run took no time")
	}
	// Written bytes must include the apply sweeps (read+write per
	// touched vertex per epoch).
	if res.VertexWrittenBytes == 0 {
		t.Fatal("apply sweeps recorded no vertex writes")
	}
}

// TestFIFOStaleRetrievals forces duplicate FIFO entries and checks the
// Table I "no coalescing in the off-chip buffer" cost is measured.
func TestFIFOStaleRetrievals(t *testing.T) {
	cfg := testConfig()
	cfg.Spill = SpillFIFO
	cfg.ActiveBufferEntries = 4
	cfg.PrefetchBatch = 2
	// CC activates every vertex repeatedly: plenty of duplicates.
	g := randGraph(41, 300, 1800).Symmetrize()
	sys, err := NewSystem(cfg, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(context.Background(), program.NewCC())
	if err != nil {
		t.Fatal(err)
	}
	if res.VMU.StaleRetrievals == 0 {
		t.Fatal("FIFO policy produced no stale retrievals on CC")
	}
	if res.VMU.MetadataBytes == 0 {
		t.Fatal("FIFO policy tracked no metadata bytes")
	}
}

// TestMSHRMergesSecondaryMisses: many messages to one hub vertex must not
// issue one memory read each, at every MSHR count, including counts small
// enough that the MPU back-pressures on a full MSHR file.
func TestMSHRMergesSecondaryMisses(t *testing.T) {
	// Star: 500 spokes all pointing at vertex 0.
	edges := make([]graph.Edge, 0, 1000)
	for i := 1; i <= 500; i++ {
		edges = append(edges, graph.Edge{Src: 501, Dst: graph.VertexID(i), Weight: 1})
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: 0, Weight: uint32(i)})
	}
	g := graph.FromEdges("star", 502, edges)
	want := ref.SSSP(g, 501)
	// reads pins the hub PE's vertex reads. 500 messages target vertex
	// 0; without MSHR merging the hub PE would issue ≥500 reads.
	for _, c := range []struct {
		mshrs int
		reads uint64
	}{{1, 240}, {2, 170}, {128, 138}} {
		cfg := testConfig()
		cfg.MSHRs = c.mshrs
		sys, err := NewSystem(cfg, g, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(context.Background(), program.NewSSSP(501))
		if err != nil {
			t.Fatal(err)
		}
		hubOwner := sys.pes[sys.part.Owner[0]]
		if reads := hubOwner.vchan.Stats().Reads; reads != c.reads {
			t.Errorf("MSHRs=%d: hub PE issued %d vertex reads, want %d", c.mshrs, reads, c.reads)
		}
		got := distsOf(res.Props)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("MSHRs=%d: vertex %d: got %d want %d", c.mshrs, v, got[v], want[v])
			}
		}
		if !sys.inboxesEmpty() {
			t.Errorf("MSHRs=%d: messages or MSHR entries still pending after Run", c.mshrs)
		}
	}
}

// TestOnChipBytesMatchesEquation cross-checks Result.OnChipBytes against
// Eq. 1/2 applied to the largest PE.
func TestOnChipBytesMatchesEquation(t *testing.T) {
	g := randGraph(8, 500, 2000)
	cfg := testConfig()
	sys, err := NewSystem(cfg, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(context.Background(), program.NewBFS(g.LargestOutDegreeVertex()))
	if err != nil {
		t.Fatal(err)
	}
	maxVerts := 0
	for _, pe := range sys.pes {
		if len(pe.localVerts) > maxVerts {
			maxVerts = len(pe.localVerts)
		}
	}
	want := cfg.OnChipBytes(maxVerts)
	if res.OnChipBytes != want {
		t.Fatalf("OnChipBytes = %d, want %d", res.OnChipBytes, want)
	}
}

// TestMultiGPNUsesCrossbar checks inter-GPN traffic is actually routed
// over the crossbar (InterBytes > 0) under random mapping.
func TestMultiGPNUsesCrossbar(t *testing.T) {
	g := randGraph(21, 400, 2400)
	res := runOn(t, testConfig(), g, program.NewBFS(g.LargestOutDegreeVertex()))
	if res.Net.InterBytes == 0 {
		t.Fatal("2-GPN system produced no inter-GPN traffic")
	}
	if res.Net.LocalBytes == 0 {
		t.Fatal("no intra-GPN traffic")
	}
	if res.Net.Bytes != res.Net.LocalBytes+res.Net.InterBytes {
		t.Fatalf("traffic accounting inconsistent: %+v", res.Net)
	}
}

// TestBSPRunMatchesFunctionalExecutorStats: the BSP engine must traverse
// exactly the same number of edges as the functional executor, since both
// implement the same epoch semantics.
func TestBSPRunMatchesFunctionalExecutorStats(t *testing.T) {
	g := randGraph(33, 250, 1500)
	p := program.NewPageRank(0.85, 3)
	_, want := program.Exec(p, g)
	res := runOn(t, testConfig(), g, p)
	if res.Stats.EdgesTraversed != want.EdgesTraversed {
		t.Fatalf("BSP engine traversed %d edges, functional executor %d",
			res.Stats.EdgesTraversed, want.EdgesTraversed)
	}
	if res.Stats.Epochs != want.Epochs {
		t.Fatalf("epochs %d vs %d", res.Stats.Epochs, want.Epochs)
	}
}

func TestEmptyGraphRejected(t *testing.T) {
	g := graph.FromEdges("empty", 0, nil)
	if _, err := NewSystem(testConfig(), g, nil); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestEventBudgetExhaustion(t *testing.T) {
	cfg := testConfig()
	cfg.MaxEvents = 100 // far too small for any real run
	g := randGraph(3, 200, 1200)
	sys, err := NewSystem(cfg, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(context.Background(), program.NewBFS(g.LargestOutDegreeVertex())); err == nil {
		t.Fatal("tiny event budget did not abort the run")
	}
}

func TestBSPWithFIFOSpill(t *testing.T) {
	// The FIFO spill policy must also work under BSP epochs.
	cfg := testConfig()
	cfg.Spill = SpillFIFO
	cfg.ActiveBufferEntries = 4
	cfg.PrefetchBatch = 2
	g := graph.GenRMAT("r", 8, 8, graph.DefaultRMAT, 1, 4)
	sys, err := NewSystem(cfg, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(context.Background(), program.NewPageRank(0.85, 3))
	if err != nil {
		t.Fatal(err)
	}
	want := ref.PageRank(g, 0.85, 3)
	for v := range want {
		if diff := res.Props[v].Float() - want[v]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("vertex %d: %v want %v", v, res.Props[v].Float(), want[v])
		}
	}
}

func TestIdealFabricMultiGPNBC(t *testing.T) {
	cfg := testConfig()
	cfg.Fabric = FabricIdeal
	g := randGraph(13, 150, 600)
	gT := g.Transpose()
	root := g.LargestOutDegreeVertex()
	scores, _, err := program.RunBC(sysRunner{nil, cfg}, g, gT, root)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.BC(g, root)
	for v := range want {
		tol := 1e-3 * (1 + want[v])
		d := scores[v] - want[v]
		if d > tol || d < -tol {
			t.Fatalf("BC at %d: %v want %v", v, scores[v], want[v])
		}
	}
}

func TestLoadImbalanceAccounting(t *testing.T) {
	g := graph.GenRMAT("r", 9, 10, graph.DefaultRMAT, 1, 6)
	root := g.LargestOutDegreeVertex()
	// Load-balanced mapping must beat a range mapping on a power-law
	// graph (the hub's edges concentrate on one PE under ranges).
	run := func(p *graph.Partition) *Result {
		sys, err := NewSystem(testConfig(), g, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(context.Background(), program.NewBFS(root))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	lb := run(graph.PartitionLoadBalanced(g, 4))
	rg := run(graph.PartitionRange(g.NumVertices(), 4))
	if lb.LoadImbalance() < 1 || rg.LoadImbalance() < 1 {
		t.Fatalf("imbalance below 1: %v / %v", lb.LoadImbalance(), rg.LoadImbalance())
	}
	if lb.LoadImbalance() >= rg.LoadImbalance() {
		t.Fatalf("load-balanced imbalance %.2f not below range %.2f",
			lb.LoadImbalance(), rg.LoadImbalance())
	}
	var total int64
	for _, e := range lb.PEEdges {
		total += e
	}
	if total != lb.Stats.EdgesTraversed {
		t.Fatalf("per-PE edges sum %d != total %d", total, lb.Stats.EdgesTraversed)
	}
}

func TestSynchronousWrapperOnNOVA(t *testing.T) {
	// The BSP form of an async program must produce identical results on
	// the simulated machine (Section III-A: NOVA runs both models).
	g := randGraph(55, 200, 1200)
	root := g.LargestOutDegreeVertex()
	async := runOn(t, testConfig(), g, program.NewSSSP(root))
	sync := runOn(t, testConfig(), g, program.Synchronous(program.NewSSSP(root)))
	for v := range async.Props {
		if async.Props[v] != sync.Props[v] {
			t.Fatalf("async/sync disagree at vertex %d", v)
		}
	}
	if sync.Stats.Epochs == 0 {
		t.Fatal("synchronous run recorded no epochs")
	}
	if async.Stats.Epochs != 0 {
		t.Fatal("asynchronous run recorded epochs")
	}
}

func TestPRDeltaOnNOVA(t *testing.T) {
	// PR-delta is order-sensitive (the paper's stated reason for running
	// PR in BSP mode), so the accelerator's ranks match the functional
	// executor's only approximately — but both must approximate the same
	// fixpoint.
	edges := make([]graph.Edge, 0, 2000)
	for i := 0; i < 200; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID((i + 1) % 200), Weight: 1})
	}
	rng := int64(17)
	for i := 0; i < 800; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		a := int((rng>>33)%200+200) % 200
		rng = rng*6364136223846793005 + 1442695040888963407
		b := int((rng>>33)%200+200) % 200
		edges = append(edges, graph.Edge{Src: graph.VertexID(a), Dst: graph.VertexID(b), Weight: 1})
	}
	g := graph.FromEdges("strong", 200, edges)
	p := program.NewPRDelta(0.85, 1e-7)
	want, _ := program.Exec(p, g)
	res := runOn(t, testConfig(), g, program.NewPRDelta(0.85, 1e-7))
	for v := range want {
		a := program.PRDeltaRank(res.Props[v])
		b := program.PRDeltaRank(want[v])
		if d := a - b; d > 1e-4+0.02*b || d < -(1e-4+0.02*b) {
			t.Fatalf("vertex %d: NOVA %v, executor %v", v, a, b)
		}
	}
	if res.Stats.MessagesCoalesced == 0 {
		t.Fatal("pr-delta on NOVA coalesced nothing — the recovery window is the whole point")
	}
}
