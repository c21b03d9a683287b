package nova

import (
	"context"
	"testing"

	"nova/graph"
	"nova/internal/ligra"
	"nova/program"
)

// TestKernelDeterminismGolden pins one cell per engine to golden tick/work
// counts on fixed seeds. The values were recorded with the seed
// container/heap event kernel; the intrusive 4-ary queue and pooled events
// must reproduce them exactly, proving the queue swap preserves
// time-then-insertion-order tie-breaking.
func TestKernelDeterminismGolden(t *testing.T) {
	g := graph.GenRMATN("golden", 2048, 8, graph.DefaultRMAT, 64, 7)
	root := g.LargestOutDegreeVertex()

	t.Run("nova", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.CacheBytesPerPE = 8 << 10
		cfg.Seed = 3
		acc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := acc.RunContext(context.Background(), program.NewSSSP(root), g)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("nova: cycles=%d edges=%d msgs=%d coalesced=%d",
			rep.Cycles, rep.Stats.EdgesTraversed, rep.Stats.MessagesSent, rep.Stats.MessagesCoalesced)
		if rep.Cycles != goldenNovaCycles {
			t.Errorf("cycles = %d, golden %d", rep.Cycles, goldenNovaCycles)
		}
		if rep.Stats.EdgesTraversed != goldenNovaEdges {
			t.Errorf("edges = %d, golden %d", rep.Stats.EdgesTraversed, goldenNovaEdges)
		}
		if rep.Stats.MessagesCoalesced != goldenNovaCoalesced {
			t.Errorf("coalesced = %d, golden %d", rep.Stats.MessagesCoalesced, goldenNovaCoalesced)
		}
	})

	t.Run("polygraph", func(t *testing.T) {
		b := &PolyGraphBaseline{OnChipBytes: 2048}
		rep, err := b.RunContext(context.Background(), program.NewBFS(root), g)
		if err != nil {
			t.Fatal(err)
		}
		passes := rep.Metric(MetricSlicePasses)
		t.Logf("polygraph: edges=%d passes=%v coalesced=%d",
			rep.Stats.EdgesTraversed, passes, rep.Stats.MessagesCoalesced)
		if rep.Stats.EdgesTraversed != goldenPGEdges {
			t.Errorf("edges = %d, golden %d", rep.Stats.EdgesTraversed, goldenPGEdges)
		}
		if passes != goldenPGPasses {
			t.Errorf("passes = %v, golden %d", passes, goldenPGPasses)
		}
	})

	t.Run("ligra", func(t *testing.T) {
		// One thread: the traversal counts of the atomics-based engine are
		// only schedule-independent when a single worker runs the edge map.
		e := &ligra.Engine{Threads: 1, Threshold: 20}
		dist, res := e.BFS(g, g.Transpose(), root)
		reached := int64(0)
		for _, d := range dist {
			if d >= 0 {
				reached++
			}
		}
		t.Logf("ligra: edges=%d iters=%d reached=%d", res.EdgesTraversed, res.Iterations, reached)
		if res.EdgesTraversed != goldenLigraEdges {
			t.Errorf("edges = %d, golden %d", res.EdgesTraversed, goldenLigraEdges)
		}
		if res.Iterations != goldenLigraIters {
			t.Errorf("iters = %d, golden %d", res.Iterations, goldenLigraIters)
		}
		if reached != goldenLigraReached {
			t.Errorf("reached = %d, golden %d", reached, goldenLigraReached)
		}
	})
}

// TestShardedDeterminismGolden runs the same 4-GPN SSSP cell at every
// worker count and pins the result to golden constants: the -shards knob
// only changes which goroutine executes a window, so cycles, traversed
// edges, and coalesced messages must be bit-identical at 1, 2, and 4
// workers — and at every future run. Props are verified against the
// sequential oracle at each count.
func TestShardedDeterminismGolden(t *testing.T) {
	g := graph.GenRMATN("golden", 2048, 8, graph.DefaultRMAT, 64, 7)
	root := g.LargestOutDegreeVertex()
	for _, shards := range []int{1, 2, 4} {
		cfg := DefaultConfig()
		cfg.GPNs = 4
		cfg.PEsPerGPN = 2
		cfg.CacheBytesPerPE = 8 << 10
		cfg.Seed = 3
		cfg.Shards = shards
		acc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := acc.RunContext(context.Background(), program.NewSSSP(root), g)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		t.Logf("shards=%d: cycles=%d edges=%d coalesced=%d windows=%d",
			shards, rep.Cycles, rep.Stats.EdgesTraversed, rep.Stats.MessagesCoalesced, rep.Windows)
		if rep.Shards != shards {
			t.Errorf("shards=%d: report says %d", shards, rep.Shards)
		}
		if rep.Cycles != goldenShardCycles {
			t.Errorf("shards=%d: cycles = %d, golden %d", shards, rep.Cycles, goldenShardCycles)
		}
		if rep.Stats.EdgesTraversed != goldenShardEdges {
			t.Errorf("shards=%d: edges = %d, golden %d", shards, rep.Stats.EdgesTraversed, goldenShardEdges)
		}
		if rep.Stats.MessagesCoalesced != goldenShardCoalesced {
			t.Errorf("shards=%d: coalesced = %d, golden %d", shards, rep.Stats.MessagesCoalesced, goldenShardCoalesced)
		}
		if err := Verify("sssp", g, root, rep.Props); err != nil {
			t.Errorf("shards=%d: %v", shards, err)
		}
	}
}

// Golden values recorded with the seed kernel (container/heap, closure
// callbacks) — see TestKernelDeterminismGolden.
const (
	goldenNovaCycles    = uint64(21110)
	goldenNovaEdges     = int64(27129)
	goldenNovaCoalesced = int64(10260)
	goldenPGEdges       = int64(19194)
	goldenPGPasses      = 11
	goldenLigraEdges    = int64(4124)
	goldenLigraIters    = 5
	goldenLigraReached  = int64(1330)
)

// Golden values for the 4-GPN sharded cell of TestShardedDeterminismGolden,
// recorded at -shards 1 when the windowed cluster landed; every worker
// count must reproduce them exactly.
const (
	goldenShardCycles    = uint64(17894)
	goldenShardEdges     = int64(27274)
	goldenShardCoalesced = int64(10799)
)
