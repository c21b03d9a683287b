package core

import (
	"math"
	"testing"

	"nova/internal/stats"
	"nova/program"
)

// spillConfig shrinks the active buffers far below the working set so the
// VMU's spill/recovery machinery carries the run — the regime the large
// scale tier operates in, compressed to test size.
func spillConfig(policy SpillPolicy) Config {
	cfg := testConfig()
	cfg.Spill = policy
	cfg.ActiveBufferEntries = 8
	cfg.PrefetchBatch = 4
	return cfg
}

func TestOverwriteSpillCoverage(t *testing.T) {
	g := randGraph(7, 600, 4800)
	sys, res := runSystem(t, spillConfig(SpillOverwrite), g, program.NewSSSP(g.LargestOutDegreeVertex()))
	prefetched, hits := res.Metric(MetricPrefetchedBlocks), res.Metric(MetricPrefetchHits)
	if res.Metric(MetricSpills) == 0 {
		t.Fatal("no spills: buffer never overflowed, spill path untested")
	}
	if prefetched == 0 || hits == 0 {
		t.Fatalf("recovery never ran: prefetched=%v hits=%v", prefetched, hits)
	}
	if hits > prefetched {
		t.Fatalf("more hits (%v) than prefetched blocks (%v)", hits, prefetched)
	}
	if w := res.Metric(MetricSpillWrites); w != 0 {
		t.Fatalf("overwrite policy issued %v spill writes, want 0 (Table I)", w)
	}

	// Recovery-hit distribution: one sample per completed prefetch batch,
	// each bounded by the batch size, summing to the aggregate hit count.
	var d stats.Distribution
	for _, pe := range sys.pes {
		d.Merge(pe.vmu.stats.BatchHits)
	}
	if d.N() == 0 {
		t.Fatal("no recovery batches observed")
	}
	if d.Max() > float64(spillConfig(SpillOverwrite).PrefetchBatch) {
		t.Fatalf("batch recovered %.0f blocks, more than the batch size", d.Max())
	}
	if got := d.Mean() * float64(d.N()); math.Abs(got-hits) > 0.5 {
		t.Fatalf("batch-hit samples sum to %.1f, want %v (= prefetch hits)", got, hits)
	}

	// The derived tracker-precision metric must land in (0, 1] and show up
	// in the dump the harness exports.
	bag := res.Dump.Bag()
	rate, ok := bag[MetricRecoveryHitRate]
	if !ok {
		t.Fatalf("%s missing from stats dump", MetricRecoveryHitRate)
	}
	want := hits / prefetched
	if rate <= 0 || rate > 1 || math.Abs(rate-want) > 1e-12 {
		t.Fatalf("recovery_hit_rate = %v, want %v", rate, want)
	}
}

func TestFIFOSpillCoverage(t *testing.T) {
	g := randGraph(7, 600, 4800)
	sys, res := runSystem(t, spillConfig(SpillFIFO), g, program.NewSSSP(g.LargestOutDegreeVertex()))
	spills, writes := res.Metric(MetricSpills), res.Metric(MetricSpillWrites)
	if spills == 0 {
		t.Fatal("no spills: buffer never overflowed, spill path untested")
	}
	if writes != spills {
		t.Fatalf("FIFO policy: %v spill writes for %v spills, want 1:1 (Table I)", writes, spills)
	}
	if res.Metric(MetricDirectPushes) == 0 {
		t.Fatal("no direct pushes: buffer was never usable")
	}
	var maxDepth int
	var batches uint64
	for _, pe := range sys.pes {
		maxDepth = max(maxDepth, pe.vmu.stats.FIFOMaxDepth)
		batches += pe.vmu.stats.BatchHits.N()
	}
	if maxDepth == 0 {
		t.Fatal("FIFO high-water mark is zero despite spills")
	}
	if res.Metric(MetricMetadataBytes) == 0 {
		t.Fatal("FIFO policy recorded no off-chip metadata")
	}
	if batches != 0 {
		t.Fatalf("FIFO policy sampled %d recovery batches, want 0 (tracker is overwrite-only)", batches)
	}
}

func TestSpillCoverageAcrossPrograms(t *testing.T) {
	// Every workload the spill-stress tier runs — including the delta
	// PageRank used as the large-tier stress program — must drive the
	// recovery path under a tiny buffer, not just SSSP.
	g := randGraph(13, 500, 4000)
	programs := []program.Program{
		program.NewBFS(g.LargestOutDegreeVertex()),
		program.NewPRDelta(0.85, 1e-7),
	}
	for _, p := range programs {
		res := runOn(t, spillConfig(SpillOverwrite), g, p)
		if spills, hits := res.Metric(MetricSpills), res.Metric(MetricPrefetchHits); spills == 0 || hits == 0 {
			t.Errorf("%s: spills=%v hits=%v — spill/recovery not exercised", p.Name(), spills, hits)
		}
	}
}
