package nova

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"nova/graph"
	"nova/internal/harness"
	"nova/internal/stats"
	"nova/program"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json with this build's results")

// goldenRow is one engine × workload × feature cell of the golden matrix.
// A NOVA row sets nova and runs once per entry of shards (once at the
// default when shards is nil); a baseline row sets engine.
type goldenRow struct {
	name, workload string
	nova           Config
	shards         []int
	engine         harness.Engine
}

// goldenNova is the matrix's NOVA machine: DefaultConfig with an 8 KiB
// cache and seed 3, on 1 GPN × 8 PEs or gpns GPNs × 2 PEs, then edited.
func goldenNova(gpns int, edits ...func(*Config)) Config {
	c := DefaultConfig()
	c.CacheBytesPerPE, c.Seed = 8<<10, 3
	if gpns > 1 {
		c.GPNs, c.PEsPerGPN = gpns, 2
	}
	for _, edit := range edits {
		edit(&c)
	}
	return c
}

func withAB16(c *Config) { c.ActiveBufferEntries = 16 }

func withWindow(w int64) func(*Config) { return func(c *Config) { c.CoalesceWindow = w } }

var (
	shards12, shards124 = []int{1, 2}, []int{1, 2, 4}
	goldenPolyGraph     = (&PolyGraphBaseline{OnChipBytes: 2048}).Engine()
	goldenExtMem        = (&ExternalMemory{RAMBytes: 16 << 10, PartitionEdges: 2048}).Engine()
)

// goldenRows runs every engine path a figure or a benchmark workload
// reads: async and BSP kernels, two-phase bc, both spill policies, a
// cache whose line count is not a power of two, the SSD tier, multi-GPN
// coalescing, the non-default mappings and the ideal fabric (Fig. 9b,
// 9c), and each baseline.
var goldenRows = []goldenRow{
	{name: "nova/sssp", workload: "sssp", nova: goldenNova(1)},
	{name: "nova/bfs", workload: "bfs", nova: goldenNova(1)},
	{name: "nova/cc", workload: "cc", nova: goldenNova(1)},
	{name: "nova/pr", workload: "pr", nova: goldenNova(1)},
	{name: "nova/bc", workload: "bc", nova: goldenNova(1)},
	{name: "nova/prdelta-ab16", workload: SpillStressWorkload, nova: goldenNova(1, withAB16)},
	// FIFO spill under delta PageRank runs ~10^8 events; sssp takes the
	// same path in milliseconds.
	{name: "nova/sssp-fifo16", workload: "sssp", nova: goldenNova(1, withAB16, func(c *Config) { c.Spill = "fifo" })},
	// 3 KiB of 32-byte lines is 96 lines: the cache maps by modulo.
	{name: "nova/sssp-cache3k", workload: "sssp", nova: goldenNova(1, func(c *Config) { c.CacheBytesPerPE = 3 << 10 })},
	{name: "nova/prdelta-ooc", workload: SpillStressWorkload, nova: goldenNova(1, withAB16, func(c *Config) { c.OutOfCore, c.SSDResidentPages = true, 1 })},
	{name: "nova4/sssp", workload: "sssp", nova: goldenNova(4), shards: shards124},
	{name: "nova4/sssp-w16", workload: "sssp", nova: goldenNova(4, withWindow(16)), shards: shards124},
	{name: "nova4/sssp-w64", workload: "sssp", nova: goldenNova(4, withWindow(64)), shards: shards124},
	{name: "nova4/prdelta-ab16-w64", workload: SpillStressWorkload, nova: goldenNova(4, withAB16, withWindow(64)), shards: shards12},
	{name: "nova4/pr", workload: "pr", nova: goldenNova(4), shards: shards12},
	{name: "nova4/sssp-locality", workload: "sssp", nova: goldenNova(4, func(c *Config) { c.Mapping = "locality" }), shards: shards12},
	{name: "nova4/sssp-lb", workload: "sssp", nova: goldenNova(4, func(c *Config) { c.Mapping = "load-balanced" }), shards: shards12},
	{name: "nova4/sssp-ideal", workload: "sssp", nova: goldenNova(4, func(c *Config) { c.Fabric = "ideal" }), shards: shards12},
	{name: "nova8/sssp", workload: "sssp", nova: goldenNova(8), shards: shards124},
	{name: "nova8/sssp-w64", workload: "sssp", nova: goldenNova(8, withWindow(64)), shards: shards124},
	{name: "polygraph/bfs", workload: "bfs", engine: goldenPolyGraph},
	{name: "polygraph/pr", workload: "pr", engine: goldenPolyGraph},
	{name: "extmem/bfs", workload: "bfs", engine: goldenExtMem},
	{name: "extmem/prdelta", workload: SpillStressWorkload, engine: goldenExtMem},
	// One thread: the atomics-based engine's traversal counts are only
	// schedule-independent when a single worker runs the edge map.
	{name: "ligra/bfs", workload: "bfs", engine: (&Software{Threads: 1}).Engine()},
}

// goldenCell is what testdata/golden.json keeps per row: the headline
// counters in the clear, so a failure names what moved, and a digest of
// everything else.
type goldenCell struct {
	Counters map[string]int64 `json:"counters"`
	Records  int              `json:"records"`
	Digest   string           `json:"digest"`
}

// TestGolden runs every row of the golden matrix through its engine's
// RunWorkload, the path sweeps, novad and the benchmark use, on the
// 2,048-vertex golden RMAT graph, and compares each cell with
// testdata/golden.json. A multi-GPN NOVA row must give one digest at
// every shard count it lists, and bfs/sssp/cc rows must match the oracle.
//
// After an intentional behavior change, refresh the file with
// `go test -run TestGolden . -update` (`make golden`) and review its diff:
// the counters say what moved.
func TestGolden(t *testing.T) {
	g, root, want := loadGolden(t)
	got := map[string]goldenCell{}
	for _, row := range goldenRows {
		t.Run(row.name, func(t *testing.T) {
			if cell, ok := row.check(t, g, root, want); ok {
				got[row.name] = cell
			}
		})
	}
	coalescingCutsEvents(t, got)
	if !*update {
		return
	}
	for name := range want {
		if !slices.ContainsFunc(goldenRows, func(r goldenRow) bool { return r.name == name }) {
			delete(want, name) // a row the table no longer has
		}
	}
	maps.Copy(want, got) // a partial -run refreshes only the rows it ran
	b, err := json.MarshalIndent(want, "", "  ")
	if err == nil {
		err = os.WriteFile("testdata/golden.json", append(b, '\n'), 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// The tests the matrix replaced keep their names as views of its rows:
// each runs the rows that hold its old cells under its old subtest names
// and compares them with testdata/golden.json as TestGolden does, so no
// value is pinned twice.

// TestGoldenStatsDump checks every non-volatile dump record of the three
// determinism cells through their digests.
func TestGoldenStatsDump(t *testing.T) {
	checkGoldenView(t, [][2]string{{"nova/sssp", "nova/sssp"}, {"polygraph/bfs", "polygraph/bfs"}, {"ligra/bfs", "ligra/bfs"}})
}

// TestKernelDeterminismGolden checks one cell per engine; its counters
// were recorded with the seed container/heap event kernel.
func TestKernelDeterminismGolden(t *testing.T) {
	checkGoldenView(t, [][2]string{{"nova", "nova/sssp"}, {"polygraph", "polygraph/bfs"}, {"ligra", "ligra/bfs"}})
}

// TestShardedDeterminismGolden checks the 4-GPN SSSP cell at 1, 2 and 4
// workers.
func TestShardedDeterminismGolden(t *testing.T) {
	checkGoldenView(t, [][2]string{{"nova4/sssp", "nova4/sssp"}})
}

// TestTopologyShardDeterminismGolden checks the crossbar's GPN count ×
// coalescing window grid at 1, 2 and 4 workers, and that a 64-cycle
// window cuts events.
func TestTopologyShardDeterminismGolden(t *testing.T) {
	coalescingCutsEvents(t, checkGoldenView(t, [][2]string{
		{"crossbar", "nova4/sssp"},
		{"crossbar-coalesce16", "nova4/sssp-w16"},
		{"crossbar-coalesce64", "nova4/sssp-w64"},
		{"crossbar-gpns8", "nova8/sssp"},
		{"crossbar-gpns8-coalesce64", "nova8/sssp-w64"},
	}))
}

// checkGoldenView runs each view entry's matrix row as a subtest named by
// the entry's first element and returns the cells by row name.
func checkGoldenView(t *testing.T, view [][2]string) map[string]goldenCell {
	g, root, want := loadGolden(t)
	got := map[string]goldenCell{}
	for _, v := range view {
		i := slices.IndexFunc(goldenRows, func(r goldenRow) bool { return r.name == v[1] })
		if i < 0 {
			t.Fatalf("%s: no matrix row %s", v[0], v[1])
		}
		t.Run(v[0], func(t *testing.T) {
			if cell, ok := goldenRows[i].check(t, g, root, want); ok {
				got[v[1]] = cell
			}
		})
	}
	return got
}

// loadGolden builds the golden graph and reads testdata/golden.json,
// which may be missing only under -update.
func loadGolden(t *testing.T) (*graph.CSR, graph.VertexID, map[string]goldenCell) {
	g := graph.GenRMATN("golden", 2048, 8, graph.DefaultRMAT, 64, 7)
	want := map[string]goldenCell{}
	b, err := os.ReadFile("testdata/golden.json")
	if err == nil {
		err = json.Unmarshal(b, &want)
	}
	if err != nil && !*update {
		t.Fatalf("%v (record it with -update)", err)
	}
	return g, g.LargestOutDegreeVertex(), want
}

// coalescingCutsEvents checks coalescing's payoff: a 64-cycle window
// runs fewer simulator events than no window at the same GPN count.
func coalescingCutsEvents(t *testing.T, got map[string]goldenCell) {
	for _, n := range []string{"nova4", "nova8"} {
		off, on := got[n+"/sssp"].Counters["events"], got[n+"/sssp-w64"].Counters["events"]
		if off > 0 && on >= off {
			t.Errorf("%s: window 64 runs %d events, window 0 runs %d; coalescing must cut events", n, on, off)
		}
	}
}

// check runs the row and, unless -update is set, compares its cell with
// want; ok is false when the run itself failed.
func (row goldenRow) check(t *testing.T, g *graph.CSR, root graph.VertexID, want map[string]goldenCell) (cell goldenCell, ok bool) {
	cell = row.run(t, g, root)
	if t.Failed() {
		return cell, false
	}
	if !*update {
		w, found := want[row.name]
		if !found {
			t.Fatal("not in testdata/golden.json (record it with -update)")
		}
		if moved := cell.diff(w); len(moved) > 0 {
			t.Error(strings.Join(moved, "\n"))
		}
	}
	return cell, true
}

// run executes the row at each of its shard counts and returns the cell
// of the first; t fails when a run fails or two shard counts disagree.
func (row goldenRow) run(t *testing.T, g *graph.CSR, root graph.VertexID) (cell goldenCell) {
	w := harness.Workload{Name: row.workload, G: g, Root: root}
	if w.Name == "cc" {
		w.G = g.Symmetrize()
	}
	shards := row.shards
	if shards == nil {
		shards = []int{0}
	}
	for i, n := range shards {
		e := row.engine
		if e == nil {
			cfg := row.nova
			cfg.Shards = n
			acc, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e = acc.Engine()
		}
		rep, err := e.RunWorkload(context.Background(), w)
		if err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
		if n > 0 && rep.Shards != n {
			t.Errorf("shards=%d: report says %d", n, rep.Shards)
		}
		if w.Name == "bfs" || w.Name == "sssp" || w.Name == "cc" {
			if err := Verify(w.Name, w.G, w.Root, rep.Props); err != nil {
				t.Errorf("shards=%d: %v", n, err)
			}
		}
		if c := newGoldenCell(rep); i == 0 {
			cell = c
		} else if c.Digest != cell.Digest {
			t.Errorf("shards=%d: %+v; shards=%d: %+v", n, c, shards[0], cell)
		}
	}
	return cell
}

// diff lists every headline counter that differs from golden, then the
// record count and the digest, which cover the rest of the cell.
func (c goldenCell) diff(golden goldenCell) []string {
	all := maps.Clone(golden.Counters)
	maps.Copy(all, c.Counters)
	var moved []string
	for k := range all {
		if c.Counters[k] != golden.Counters[k] {
			moved = append(moved, fmt.Sprintf("%s = %d, golden %d", k, c.Counters[k], golden.Counters[k]))
		}
	}
	slices.Sort(moved)
	if c.Records != golden.Records {
		moved = append(moved, fmt.Sprintf("%d dump records, golden %d", c.Records, golden.Records))
	}
	if c.Digest != golden.Digest {
		moved = append(moved, fmt.Sprintf("digest %s, golden %s (a record, a stat or an output moved)", c.Digest, golden.Digest))
	}
	return moved
}

// goldenCounters maps a cell's headline counter names to dump paths; a
// counter is kept when the run reports it nonzero.
var goldenCounters = map[string]string{
	"cycles":           MetricCycles,
	"events":           MetricEventsExecuted,
	"fabric_coalesced": MetricNetworkCoalesced,
	"spills":           MetricSpills,
	"page_ins":         MetricPartitionLoads,
	"passes":           MetricSlicePasses,
	"iterations":       MetricIterations,
}

// newGoldenCell renders a report as its golden cell. The digest is
// FNV-1a over every non-volatile dump record sorted by path, the
// RunStats (less the software engine's wall-clock seconds) and the
// outputs. Integers hash exactly; other floats, the pr and prdelta ranks
// and the bc scores, hash at 9 significant digits, which absorbs the
// last-bit differences fused multiply-adds make across platforms.
func newGoldenCell(rep *harness.Report) goldenCell {
	c := map[string]int64{"edges": rep.Stats.EdgesTraversed, "coalesced": rep.Stats.MessagesCoalesced}
	for k, path := range goldenCounters {
		if v := rep.Metric(path); v != 0 {
			c[k] = int64(v)
		}
	}
	h := fnv.New64a()
	var recs []stats.Record
	if rep.Dump != nil {
		recs = slices.DeleteFunc(slices.Clone(rep.Dump.Records), func(r stats.Record) bool { return r.Volatile })
	}
	slices.SortFunc(recs, func(a, b stats.Record) int { return strings.Compare(a.Path, b.Path) })
	for _, r := range recs {
		fmt.Fprintf(h, "%s=%s\n", r.Path, goldenValue(r.Value))
	}
	s := rep.Stats
	seconds := goldenValue(s.SimSeconds)
	if rep.Engine == "ligra" {
		seconds = "wall-clock"
	}
	fmt.Fprintf(h, "stats %s %d %d %d %d\n", seconds, s.EdgesTraversed, s.MessagesSent, s.MessagesCoalesced, s.Epochs)
	for _, p := range rep.Props {
		switch rep.Workload {
		case "pr":
			fmt.Fprintln(h, goldenValue(p.Float()))
		case SpillStressWorkload:
			fmt.Fprintln(h, goldenValue(program.PRDeltaRank(p)))
		default:
			fmt.Fprintln(h, uint64(p))
			if p != program.Inf && rep.Workload != "cc" {
				c["reached"]++
			}
		}
	}
	for _, x := range rep.Scores {
		fmt.Fprintln(h, goldenValue(x))
	}
	return goldenCell{Counters: c, Records: len(recs), Digest: fmt.Sprintf("%016x", h.Sum64())}
}

// goldenValue renders v for the digest: an integer exactly, anything
// else at 9 significant digits.
func goldenValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 9, 64)
}
