package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nova/graph"
	"nova/internal/ref"
	"nova/internal/resource"
	"nova/program"
)

// testConfig returns a small 2-GPN × 2-PE system for fast tests.
func testConfig() Config {
	cfg := DefaultConfig(2)
	cfg.PEsPerGPN = 2
	cfg.CacheBytesPerPE = 4 << 10
	cfg.SuperblockDim = 16
	cfg.ActiveBufferEntries = 16
	cfg.PrefetchBatch = 4
	return cfg
}

func runOn(t *testing.T, cfg Config, g *graph.CSR, p program.Program) *Result {
	t.Helper()
	_, res := runSystem(t, cfg, g, p)
	return res
}

// runSystem is runOn returning the finished system too, for tests that
// read per-component state the root records do not sum.
func runSystem(t *testing.T, cfg Config, g *graph.CSR, p program.Program) (*System, *Result) {
	t.Helper()
	sys, err := NewSystem(cfg, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(context.Background(), p)
	if err != nil {
		t.Fatalf("run %s on %s: %v", p.Name(), g.Name, err)
	}
	return sys, res
}

func randGraph(seed int64, n, m int) *graph.CSR {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{
			Src:    graph.VertexID(rng.Intn(n)),
			Dst:    graph.VertexID(rng.Intn(n)),
			Weight: uint32(1 + rng.Intn(8)),
		}
	}
	return graph.FromEdges("rand", n, edges)
}

func distsOf(props []program.Prop) []int64 {
	out := make([]int64, len(props))
	for i, p := range props {
		if p == program.Inf {
			out[i] = ref.Unreached
		} else {
			out[i] = int64(p)
		}
	}
	return out
}

func TestNOVABFSMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		g := randGraph(seed, 120, 700)
		root := g.LargestOutDegreeVertex()
		res := runOn(t, testConfig(), g, program.NewBFS(root))
		want := ref.BFS(g, root)
		got := distsOf(res.Props)
		for v := range want {
			if got[v] != want[v] {
				t.Logf("seed %d vertex %d: got %d want %d", seed, v, got[v], want[v])
				return false
			}
		}
		return res.Metric(MetricCycles) > 0 && res.Stats.EdgesTraversed > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestNOVASSSPMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		g := randGraph(seed, 100, 600)
		root := g.LargestOutDegreeVertex()
		res := runOn(t, testConfig(), g, program.NewSSSP(root))
		want := ref.SSSP(g, root)
		got := distsOf(res.Props)
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestNOVACCMatchesOracle(t *testing.T) {
	g := randGraph(11, 150, 400).Symmetrize()
	res := runOn(t, testConfig(), g, program.NewCC())
	want := ref.CC(g)
	for v := range want {
		if int64(res.Props[v]) != want[v] {
			t.Fatalf("vertex %d: label %d, want %d", v, res.Props[v], want[v])
		}
	}
}

func TestNOVAPageRankMatchesOracle(t *testing.T) {
	g := graph.GenRMAT("r", 8, 8, graph.DefaultRMAT, 1, 5)
	res := runOn(t, testConfig(), g, program.NewPageRank(0.85, 5))
	want := ref.PageRank(g, 0.85, 5)
	for v := range want {
		if math.Abs(res.Props[v].Float()-want[v]) > 1e-9 {
			t.Fatalf("vertex %d: rank %v, want %v", v, res.Props[v].Float(), want[v])
		}
	}
	if res.Stats.Epochs != 5 {
		t.Fatalf("epochs = %d, want 5", res.Stats.Epochs)
	}
}

type sysRunner struct {
	t   *testing.T
	cfg Config
}

func (r sysRunner) RunProgram(p program.Program, g *graph.CSR) ([]program.Prop, program.RunStats, error) {
	sys, err := NewSystem(r.cfg, g, nil)
	if err != nil {
		return nil, program.RunStats{}, err
	}
	res, err := sys.Run(context.Background(), p)
	if err != nil {
		return nil, program.RunStats{}, err
	}
	return res.Props, res.Stats, nil
}

func TestNOVABCMatchesBrandes(t *testing.T) {
	g := randGraph(5, 80, 300)
	gT := g.Transpose()
	root := g.LargestOutDegreeVertex()
	scores, stats, err := program.RunBC(sysRunner{t, testConfig()}, g, gT, root)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.BC(g, root)
	for v := range want {
		tol := 1e-3 * (1 + math.Abs(want[v]))
		if math.Abs(scores[v]-want[v]) > tol {
			t.Fatalf("vertex %d: δ %v, want %v", v, scores[v], want[v])
		}
	}
	if stats.SimSeconds <= 0 {
		t.Fatal("BC reported no simulated time")
	}
}

func TestNOVAFIFOSpillPolicyCorrect(t *testing.T) {
	cfg := testConfig()
	cfg.Spill = SpillFIFO
	cfg.ActiveBufferEntries = 8
	cfg.PrefetchBatch = 4
	g := randGraph(23, 120, 700)
	root := g.LargestOutDegreeVertex()
	res := runOn(t, cfg, g, program.NewSSSP(root))
	want := ref.SSSP(g, root)
	got := distsOf(res.Props)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("FIFO policy wrong at %d: %d want %d", v, got[v], want[v])
		}
	}
	if res.Metric(MetricSpillWrites) == 0 {
		t.Fatal("FIFO policy recorded no spill writes on an overflowing run")
	}
	if res.Metric(MetricSpillWrites) != res.Metric(MetricSpills) {
		t.Fatalf("FIFO: %v spill writes for %v spills, want 1 per spill", res.Metric(MetricSpillWrites), res.Metric(MetricSpills))
	}
}

func TestOverwritePolicyNoExtraWrites(t *testing.T) {
	cfg := testConfig()
	cfg.ActiveBufferEntries = 8
	cfg.PrefetchBatch = 4
	g := randGraph(23, 200, 1200)
	res := runOn(t, cfg, g, program.NewCC().(program.Program))
	if res.Metric(MetricSpills) == 0 {
		t.Fatal("expected spills with an 8-entry buffer and all-active CC")
	}
	if w := res.Metric(MetricSpillWrites); w != 0 {
		t.Fatalf("overwrite policy charged %v extra spill writes, want 0 (Table I)", w)
	}
	if b := res.Metric(MetricMetadataBytes); b != 0 {
		t.Fatalf("overwrite policy claims %v metadata bytes, want 0", b)
	}
}

func TestTrackerInvariants(t *testing.T) {
	// After any run: counters are zero and consistent (everything was
	// recovered), and counter[sb] always equals tracked bits. Check at
	// the end — no active work may remain.
	g := randGraph(31, 300, 2000)
	sys, err := NewSystem(testConfig(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(context.Background(), program.NewBFS(g.LargestOutDegreeVertex())); err != nil {
		t.Fatal(err)
	}
	if n := sys.totalActive(); n != 0 {
		t.Fatalf("activeCount = %d after completion", n)
	}
	for _, pe := range sys.pes {
		u := pe.vmu
		if u.trackedTotal != 0 {
			t.Fatalf("PE %d: trackedTotal = %d at quiescence", pe.id, u.trackedTotal)
		}
		for sb, c := range u.counters {
			if c != 0 {
				t.Fatalf("PE %d: counter[%d] = %d at quiescence", pe.id, sb, c)
			}
		}
		if u.bufferLen() != 0 {
			t.Fatalf("PE %d: %d buffer entries left", pe.id, u.bufferLen())
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (*Result, int64) {
		g := randGraph(7, 150, 900)
		sys, err := NewSystem(testConfig(), g, graph.PartitionRandom(g.NumVertices(), 4, 3))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(context.Background(), program.NewSSSP(g.LargestOutDegreeVertex()))
		if err != nil {
			t.Fatal(err)
		}
		return res, int64(sys.executed())
	}
	a, ea := run()
	b, eb := run()
	if a.Metric(MetricCycles) != b.Metric(MetricCycles) || ea != eb ||
		a.Stats.EdgesTraversed != b.Stats.EdgesTraversed ||
		a.Stats.MessagesCoalesced != b.Stats.MessagesCoalesced {
		t.Fatalf("nondeterministic: ticks %v/%v events %d/%d edges %d/%d",
			a.Metric(MetricCycles), b.Metric(MetricCycles), ea, eb, a.Stats.EdgesTraversed, b.Stats.EdgesTraversed)
	}
}

func TestResultAccountingSane(t *testing.T) {
	g := graph.GenRMAT("r", 9, 10, graph.DefaultRMAT, 64, 2)
	res := runOn(t, testConfig(), g, program.NewSSSP(g.LargestOutDegreeVertex()))
	if res.Stats.SimSeconds <= 0 {
		t.Fatal("no simulated time")
	}
	u, w, waste := res.Metric(MetricVertexUsefulFrac), res.Metric(MetricVertexWriteFrac), res.Metric(MetricVertexWastefulFrac)
	for _, f := range []float64{u, w, waste} {
		if f < 0 || f > 1 {
			t.Fatalf("bandwidth fraction %v out of [0,1] (u=%v w=%v waste=%v)", f, u, w, waste)
		}
	}
	if u+w+waste > 1.0001 {
		t.Fatalf("bandwidth fractions sum to %v > 1", u+w+waste)
	}
	if u := res.Metric(MetricEdgeUtilization); u < 0 || u > 1.0001 {
		t.Fatalf("edge utilization %v out of range", u)
	}
	if res.Metric(MetricProcessingSeconds)+res.Metric(MetricOverheadSeconds) > res.Stats.SimSeconds*1.0001 {
		t.Fatal("time breakdown exceeds total")
	}
	seq := ref.SequentialEdges(g, g.LargestOutDegreeVertex(), "sssp", 0)
	we := res.Stats.WorkEfficiency(seq)
	if we <= 0 || we > 1.0001 {
		t.Fatalf("work efficiency %v out of (0,1]", we)
	}
	if res.Metric(MetricOnChipBytes) <= 0 {
		t.Fatal("on-chip bytes not computed")
	}
}

func TestIdealFabricFasterOrEqual(t *testing.T) {
	g := graph.GenRMAT("r", 10, 12, graph.DefaultRMAT, 1, 4)
	root := g.LargestOutDegreeVertex()
	cfgH := testConfig()
	cfgI := testConfig()
	cfgI.Fabric = FabricIdeal
	h := runOn(t, cfgH, g, program.NewBFS(root))
	i := runOn(t, cfgI, g, program.NewBFS(root))
	if i.Metric(MetricCycles) > h.Metric(MetricCycles) {
		t.Fatalf("ideal fabric slower than hierarchical: %v vs %v", i.Metric(MetricCycles), h.Metric(MetricCycles))
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig(1)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig(1)
	bad.PrefetchBatch = 1000
	if err := bad.Validate(); err == nil {
		t.Fatal("oversized prefetch batch validated")
	}
	bad = DefaultConfig(0)
	if err := bad.Validate(); err == nil {
		t.Fatal("0 GPNs validated")
	}
	// Block and vertex sizes must be positive powers of two; each case
	// must come back as an error, never a panic here or in NewSystem.
	// The 48 KiB cache holds a whole number of 48 B blocks, so only the
	// power-of-two rule rejects the last case.
	for _, geom := range []struct{ vertex, block, cache int }{
		{16, 0, 64 << 10},
		{16, -32, 64 << 10},
		{24, 48, 48 << 10},
	} {
		bad = DefaultConfig(1)
		bad.VertexBytes, bad.BlockBytes, bad.CacheBytesPerPE = geom.vertex, geom.block, geom.cache
		if err := bad.Validate(); err == nil {
			t.Errorf("VertexBytes %d / BlockBytes %d validated", geom.vertex, geom.block)
		}
	}
}

func TestTrackerCapacityEquation(t *testing.T) {
	// Paper example: WDC12-scale per-PE memory with superblock_dim=128,
	// block 32 B: tracker must be ~27× smaller than a per-vertex bit
	// vector. Check Eq. 1/2 directly on a smaller instance.
	cfg := DefaultConfig(1)
	verts := 1 << 20
	bits := resource.TrackerBits(int64(verts)*int64(cfg.VertexBytes), cfg.SuperblockDim, cfg.BlockBytes)
	// num_superblocks = V*16 / (128*32) = V/256; bits = 8 per superblock.
	wantSB := int64(verts) * 16 / (128 * 32)
	if bits != wantSB*8 {
		t.Fatalf("tracker bits = %d, want %d", bits, wantSB*8)
	}
	bitVector := int64(verts) // 1 bit per vertex
	if ratio := float64(bitVector) / float64(bits); ratio < 30 {
		t.Fatalf("tracker only %.1fx smaller than bit vector", ratio)
	}
}

func TestRunTwiceFails(t *testing.T) {
	g := randGraph(1, 20, 40)
	sys, err := NewSystem(testConfig(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(context.Background(), program.NewBFS(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(context.Background(), program.NewBFS(0)); err == nil {
		t.Fatal("second Run did not fail")
	}
}

func TestPartitionMismatchRejected(t *testing.T) {
	g := randGraph(1, 20, 40)
	if _, err := NewSystem(testConfig(), g, graph.PartitionInterleave(20, 3)); err == nil {
		t.Fatal("partition/PE mismatch accepted")
	}
	if _, err := NewSystem(testConfig(), g, graph.PartitionInterleave(10, 4)); err == nil {
		t.Fatal("partition vertex-count mismatch accepted")
	}
}

func TestTinyBufferStillCorrect(t *testing.T) {
	// Stress the spill/recover path: a 2-entry active buffer forces
	// nearly every activation through the tracker.
	cfg := testConfig()
	cfg.ActiveBufferEntries = 2
	cfg.PrefetchBatch = 2
	g := randGraph(17, 100, 600)
	root := g.LargestOutDegreeVertex()
	res := runOn(t, cfg, g, program.NewBFS(root))
	want := ref.BFS(g, root)
	got := distsOf(res.Props)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("tiny buffer wrong at %d", v)
		}
	}
	if res.Metric(MetricSpills) == 0 {
		t.Fatal("tiny buffer produced no spills")
	}
	if res.Metric(MetricVertexWastefulFrac) == 0 {
		t.Fatal("recovery produced no wasteful reads — tracker never searched")
	}
}

func TestSingleVertexGraph(t *testing.T) {
	g := graph.FromEdges("one", 1, nil)
	res := runOn(t, testConfig(), g, program.NewBFS(0))
	if res.Props[0] != 0 {
		t.Fatalf("root prop = %d", res.Props[0])
	}
}

// TestMPUMissPathAllocs pins the MPU's miss path allocation-free. Each
// cycle delivers two messages to each of 512 local vertices (256 blocks)
// through a 256 B cache, so nearly every message misses: primary misses
// take MSHRs, secondary misses merge into them, and with 128 MSHRs for 256
// blocks the MPU back-pressures. Once the inbox, the task pools and the
// MSHR waiter buffers have grown, a cycle must allocate nothing.
func TestMPUMissPathAllocs(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.PEsPerGPN = 1
	cfg.CacheBytesPerPE = 256
	s, err := NewSystem(cfg, randGraph(3, 4000, 8000), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.cluster.Close()
	// Every prop is 0, the SSSP minimum, so no reduce changes a value:
	// no activation, vertex write or propagation joins the MPU's work.
	s.prog = program.NewSSSP(0)
	clear(s.props)
	pe := s.pes[0]
	var msgs []program.Message
	for pass := 0; pass < 2; pass++ {
		for v := 0; v < 512; v++ {
			msgs = append(msgs, program.Message{Dst: graph.VertexID(v), Delta: 1})
		}
	}
	cycle := func() {
		pe.deliver(msgs)
		if err := s.clusterRun(0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	if !s.inboxesEmpty() {
		t.Fatal("messages or MSHR entries still pending after a cycle ran to quiescence")
	}
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Fatalf("MPU miss path: %.0f allocations per cycle of %d messages, want 0", n, len(msgs))
	}
}
