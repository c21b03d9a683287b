// Command statsgen generates STATS.md, the reference of every statistic
// the engines register. It is wired to `go generate ./internal/stats`.
//
// Rather than parsing source, it runs one tiny workload per engine and
// reads the resulting dumps: every stat self-describes (path, kind,
// unit, description, volatility) in its records, so the generated table
// is exactly what a real run emits — stale docs fail the CI drift check
// instead of rotting. Replicated subtrees (gpn0.pe3..., slice2...) are
// collapsed by rewriting digit runs in path segments to "*".
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"nova"
	"nova/graph"
	"nova/internal/exp"
	"nova/internal/ligra"
	"nova/internal/stats"
	"nova/program"
)

func main() {
	out := flag.String("o", "STATS.md", "output file")
	flag.Parse()

	dumps, err := buildDumps()
	if err != nil {
		fmt.Fprintf(os.Stderr, "statsgen: %v\n", err)
		os.Exit(1)
	}

	var b strings.Builder
	b.WriteString(header)
	for _, d := range dumps {
		writeEngine(&b, d)
	}
	if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "statsgen: %v\n", err)
		os.Exit(1)
	}
}

const header = `# Statistics reference

<!-- Generated by internal/statsgen; run "go generate ./internal/stats"
     (or "make stats-md") to refresh. CI fails when this file drifts. -->

Every engine registers its statistics in a hierarchical tree
(internal/stats) and renders it to a dump at the end of a run; the
tables below list each registered stat with the metadata captured at
registration. Replicated component subtrees are collapsed: a "*" in a
path stands for an instance index ("gpn*.pe*.vmu.spills" covers every
VMU in the system). Distributions and histograms appear once under the
owning stat's path; their dumps expand into ".samples", ".mean",
".min"/".max"/".stddev" (distributions) and ".le<hi>"/".overflow"
bucket records (histograms).

Consumers read records by path, through harness.Report.Metric or
stats.Dump.Value; the Metric* constants in the nova package name the
root-level paths. The "consumed by" column names the figures and tables
of the evaluation that read them. Volatile stats vary run to run (host
wall-clock, racy parallel counters) and are skipped by dump diffs by
default.

Get a dump for any cell with ` + "`novasim -stats-out FILE.json`" + ` and
compare two dumps with ` + "`statdiff`" + `.
`

// engineDump pairs an engine's display heading with one of its dumps.
type engineDump struct {
	heading string
	dump    *stats.Dump
}

// buildDumps runs one small workload per engine — enough to instantiate
// every component (2 GPNs exercises the inter-GPN crossbar rows, the
// out-of-core tier the SSD rows, 2 slices the per-slice schedule) without
// slowing go generate down.
func buildDumps() ([]engineDump, error) {
	g := graph.GenRMATN("ref", 512, 8, graph.DefaultRMAT, 64, 7)
	root := g.LargestOutDegreeVertex()

	cfg := nova.DefaultConfig()
	cfg.GPNs = 2
	cfg.PEsPerGPN = 2
	cfg.CacheBytesPerPE = 8 << 10
	cfg.OutOfCore = true
	acc, err := nova.New(cfg)
	if err != nil {
		return nil, err
	}
	novaRep, err := acc.RunContext(context.Background(), program.NewSSSP(root), g)
	if err != nil {
		return nil, err
	}

	pg := &nova.PolyGraphBaseline{ForceSlices: 2}
	pgRep, err := pg.RunContext(context.Background(), program.NewBFS(root), g)
	if err != nil {
		return nil, err
	}

	lg := &ligra.Engine{Threads: 1, Threshold: 20}
	_, res := lg.BFS(g, g.Transpose(), root)
	ligraDump := lg.StatsDump(res, nil)

	emRep, err := (&nova.ExternalMemory{}).RunContext(context.Background(), program.NewSSSP(root), g)
	if err != nil {
		return nil, err
	}

	return []engineDump{
		{"NOVA accelerator (`-engine nova`)", novaRep.Dump},
		{"PolyGraph baseline (`-engine polygraph`)", pgRep.Dump},
		{"Ligra-style software baseline (`-engine ligra`)", ligraDump},
		{"External-memory baseline (`-engine extmem`)", emRep.Dump},
	}, nil
}

// row is one collapsed stat: the first record seen for its normalized
// owning-stat path.
type row struct {
	path     string
	kind     stats.Kind
	unit     stats.Unit
	desc     string
	volatile bool
}

func writeEngine(b *strings.Builder, d engineDump) {
	seen := map[string]bool{}
	var rows []row
	for _, r := range d.dump.Records {
		p := normalize(r.Stat)
		if seen[p] {
			continue
		}
		seen[p] = true
		rows = append(rows, row{p, r.Kind, r.Unit, r.Desc, r.Volatile})
	}

	fmt.Fprintf(b, "\n## %s\n\n", d.heading)
	b.WriteString("| stat | kind | unit | description | consumed by |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for _, r := range rows {
		desc := r.desc
		if r.volatile {
			desc += " *(volatile)*"
		}
		fmt.Fprintf(b, "| `%s` | %s | %s | %s | %s |\n",
			r.path, r.kind, r.unit, desc, consumers(r.path))
	}
}

// consumers renders the figures/tables reading a root-level stat.
func consumers(path string) string {
	c, ok := exp.MetricConsumers[path]
	if !ok {
		return ""
	}
	sorted := append([]string(nil), c...)
	sort.Strings(sorted)
	return strings.Join(sorted, ", ")
}

// normalize rewrites a trailing digit run in each path segment to "*",
// so replicated instances (gpn0, gpn1, pe3, slice12, edge0) collapse to
// one row per stat shape. Only trailing runs: interior digits are part
// of the stat's name ("p2p_busy_cycles"), not an instance index.
func normalize(path string) string {
	segs := strings.Split(path, ".")
	for i, s := range segs {
		j := len(s)
		for j > 0 && s[j-1] >= '0' && s[j-1] <= '9' {
			j--
		}
		if j < len(s) {
			segs[i] = s[:j] + "*"
		}
	}
	return strings.Join(segs, ".")
}
