// Command novasim runs workloads on the simulated engines and prints the
// full metrics report — the quickest way to poke at the simulator.
//
// Usage:
//
//	novasim -engine nova -workload sssp -graph twitter -gpns 2 -scale small
//	novasim -engine polygraph -workload bfs -graph urand
//	novasim -engine ligra -workload pr -graph road
//
// Every run is an engine×workload sweep through the harness pool, one
// cell or many: comma-separated lists (or "all") fan the grid's cells out
// over -jobs workers, and -timeout, -verify and -stats-out apply to every
// cell alike:
//
//	novasim -engine all -workload bfs,pr -graph twitter -jobs 4
//
// A grid skips, with a one-line note, each pair its engine does not run
// (extmem runs neither pr nor bc); an unknown workload, or a grid with no
// runnable pair, is rejected before any dataset is built.
//
// -graph-file runs on a graph from disk instead of a generated dataset: a
// .csr file is a binary CSR container (graphgen -o), read whole with
// graph.ReadCSRFile; any other file is a text edge list.
//
// -stats-out writes the merged hierarchical statistics dump of every cell
// (format by extension: .json, .csv, .txt); see STATS.md for the record
// reference and cmd/statdiff for comparing dumps:
//
//	novasim -engine nova -workload sssp -graph urand -stats-out run.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"nova"
	"nova/graph"
	"nova/internal/exp"
	"nova/internal/harness"
	"nova/internal/prof"
	"nova/internal/service"
	"nova/internal/stats"
)

func main() {
	// The engine flags bind straight into the engines' config structs;
	// checkFlags validates them before any dataset is built.
	cfg := nova.DefaultConfig()
	var em nova.ExternalMemory
	engine := flag.String("engine", "nova", "nova|polygraph|ligra|extmem, comma-separated list, or all")
	workload := flag.String("workload", "bfs", "bfs|sssp|cc|pr|bc|prdelta, comma-separated list, or all")
	graphName := flag.String("graph", "twitter", "road|twitter|friendster|host|urand")
	scaleFlag := flag.String("scale", "small", "small|medium|full|large")
	flag.IntVar(&cfg.GPNs, "gpns", 1, "number of GPNs (nova engine)")
	flag.IntVar(&cfg.Shards, "shards", 1, "simulation worker goroutines for the sharded nova kernel (clamped to -gpns; results are bit-identical at every setting)")
	flag.StringVar(&cfg.Mapping, "mapping", "random", "random|interleave|load-balanced|locality")
	flag.StringVar(&cfg.Spill, "spill", "overwrite", "overwrite|fifo")
	flag.StringVar(&cfg.Fabric, "fabric", "hierarchical", "hierarchical|ideal")
	flag.Int64Var(&cfg.CoalesceWindow, "coalesce-window", 0, "in-fabric coalescing window in cycles (0 = off; nova engine, hierarchical fabric)")
	prIters := flag.Int("pr-iters", 10, "PageRank iterations")
	flag.BoolVar(&cfg.OutOfCore, "out-of-core", false, "enable the SSD-backed out-of-core tier (nova engine): vertex blocks outside the resident window pay a modeled page-in")
	flag.StringVar(&em.SSDPreset, "ssd", "", "SSD timing preset for paging engines: nvme (default) or sata")
	flag.IntVar(&cfg.SSDResidentPages, "ssd-resident-pages", 0, "per-PE SSD resident window in pages (nova engine, requires -out-of-core; 0 = default)")
	flag.Int64Var(&em.RAMBytes, "extmem-ram", 0, "DRAM partition-cache budget in bytes for the extmem engine (0 = default 256 MiB)")
	flag.Int64Var(&em.PartitionEdges, "extmem-part-edges", 0, "target edges per vertex interval for the extmem engine (0 = default 1Mi)")
	verify := flag.Bool("verify", true, "check every bfs, sssp and cc cell against the sequential oracle")
	graphFile := flag.String("graph-file", "", "load graph from a file instead of the registry (.csr = binary CSR container, else edge list)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file (one nova cell of a single-phase workload)")
	statsOut := flag.String("stats-out", "", "write the merged statistics dump to FILE (.json, .csv, or .txt by extension)")
	jobsN := flag.Int("jobs", runtime.GOMAXPROCS(0), "concurrent cells")
	timeout := flag.Duration("timeout", 0, "per-cell wall-clock timeout (0 = unbounded); a timed-out cell reports a partial result")
	profFlags := prof.RegisterFlags()
	flag.Parse()
	defer profFlags.Start()()

	// SIGINT/SIGTERM cancel the run context: the engines stop cooperatively
	// within one poll interval and partial results are still rendered (and
	// flushed to -stats-out, marked partial). A second signal kills the
	// process the default way, because stop() deregisters on cancellation.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	context.AfterFunc(ctx, stopSignals)

	engines := splitList(*engine, []string{"nova", "polygraph", "ligra", "extmem"})
	workloads := splitList(*workload, nova.WorkloadNames)
	scale, err := exp.ParseScale(*scaleFlag)
	check(err)
	cfg = exp.NOVAConfig(scale, cfg, cfg.GPNs)
	check(checkFlags(engines, workloads, *tracePath, &cfg, &em))
	// service.BuildEngine builds every engine by name; building them here
	// also rejects an unknown -engine before any dataset is.
	var engs []harness.Engine
	for _, en := range engines {
		eng, err := service.BuildEngine(&service.JobRequest{Engine: en, Nova: &cfg, PolyGraph: exp.PGBaseline(scale), Extmem: &em}, nil)
		check(err)
		engs = append(engs, eng)
	}
	if *tracePath != "" {
		acc, err := nova.New(cfg)
		check(err)
		engs[0] = tracedEngine{engs[0], acc, *tracePath}
	}

	var d *exp.Dataset
	if *graphFile != "" {
		var loaded *graph.CSR
		if strings.HasSuffix(*graphFile, ".csr") {
			// The versioned binary CSR container: checksummed, loaded in
			// constant memory (graphgen -o writes it).
			loaded, err = graph.ReadCSRFile(*graphFile)
		} else {
			var f *os.File
			f, err = os.Open(*graphFile)
			check(err)
			loaded, err = graph.ReadEdgeList(*graphFile, f)
			f.Close()
		}
		check(err)
		d = &exp.Dataset{Name: loaded.Name, Graph: loaded, Root: loaded.LargestOutDegreeVertex()}
	} else {
		d, err = exp.DatasetByName(scale, *graphName)
		check(err)
	}

	// Every run, one cell or a grid, is a sweep through the harness pool.
	runSweep(ctx, scale, d, engs, workloads, cfg, *prIters, *jobsN, *timeout, *statsOut, *verify)
}

// tracedEngine is the nova engine running its cell through
// Accelerator.RunTraced, with the Chrome trace written to path.
type tracedEngine struct {
	harness.Engine
	acc  *nova.Accelerator
	path string
}

func (e tracedEngine) RunWorkload(ctx context.Context, w harness.Workload) (*harness.Report, error) {
	f, err := os.Create(e.path)
	if err != nil {
		return nil, err
	}
	rep, err := e.acc.RunTraced(ctx, w, f)
	if cerr := f.Close(); cerr != nil && err == nil {
		return nil, cerr
	}
	if rep != nil {
		fmt.Fprintf(os.Stderr, "trace written to %s\n", e.path)
	}
	return rep, err
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "novasim:", err)
		os.Exit(1)
	}
}

// splitList parses a comma-separated flag value, expanding "all".
func splitList(v string, all []string) []string {
	if v == "all" {
		return all
	}
	parts := strings.Split(v, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// checkFlags validates the engine configuration the flags built, before
// any dataset is: graph construction at the larger scales is the
// expensive part of a run, so a bad flag must fail in milliseconds, not
// minutes. nova.CheckCell rejects an unknown engine or workload, and a
// grid in which no engine runs any of the workloads (runSweep skips the
// unrunnable cells of any other grid); nova.New and
// ExternalMemory.Validate check the values (for every run, like any other
// flag); the rest rejects knobs that none of the selected engines would
// read, and a -trace that is not one traceable cell. -ssd feeds both
// paging engines, so it reaches the nova tier only when -out-of-core is
// on.
func checkFlags(engines, workloads []string, trace string, cfg *nova.Config, em *nova.ExternalMemory) error {
	runnable := 0
	var unsupported error
	for _, e := range engines {
		for _, w := range workloads {
			err := nova.CheckCell(e, w)
			switch {
			case err == nil:
				runnable++
			case !errors.Is(err, nova.ErrUnsupportedCell):
				return err
			default:
				unsupported = err
			}
		}
	}
	if runnable == 0 {
		return fmt.Errorf("engines %v run none of workloads %v: %w", engines, workloads, unsupported)
	}
	if cfg.OutOfCore {
		cfg.SSDPreset = em.SSDPreset
	}
	if _, err := nova.New(*cfg); err != nil {
		return err
	}
	if err := em.Validate(); err != nil {
		return err
	}
	uses := func(name string) bool { return slices.Contains(engines, name) }
	switch {
	case !uses("nova") && cfg.CoalesceWindow > 0:
		return fmt.Errorf("-coalesce-window applies to the nova engine only; engines %v would silently ignore it (add nova to -engine)", engines)
	case !uses("nova") && cfg.OutOfCore:
		return fmt.Errorf("-out-of-core applies to the nova engine only; engines %v would silently ignore it (add nova to -engine)", engines)
	case !uses("extmem") && (em.RAMBytes > 0 || em.PartitionEdges > 0):
		return fmt.Errorf("-extmem-ram/-extmem-part-edges apply to the extmem engine only; engines %v would silently ignore them (add extmem to -engine)", engines)
	case em.SSDPreset != "" && !cfg.OutOfCore && !uses("extmem"):
		return fmt.Errorf("-ssd picks the paging device for -out-of-core nova or the extmem engine; neither is selected")
	case trace != "" && (len(engines) != 1 || !uses("nova") || len(workloads) != 1 || workloads[0] == "bc"):
		return fmt.Errorf("-trace records one nova cell of a single-phase workload; engines %v × workloads %v is not one", engines, workloads)
	case trace != "" && cfg.Shards > 1 && cfg.GPNs > 1:
		return fmt.Errorf("-trace needs -shards 1: the trace buffer is not sharded")
	}
	return nil
}

// runSweep fans the engine×workload grid out over the harness pool and
// prints one summary line per cell, in grid order, plus the wall-clock
// cost of the sweep vs its sequential equivalent. Under a cell's row go
// its engine's detail line and, with verify, its oracle check. Cancelling
// ctx (Ctrl-C) stops running cells cooperatively; their salvaged partial
// reports are rendered, flushed to -stats-out marked partial, and fail
// the process.
func runSweep(ctx context.Context, scale exp.Scale, d *exp.Dataset, engines []harness.Engine, workloads []string, cfg nova.Config, prIters, jobsN int, timeout time.Duration, statsOut string, verify bool) {
	fmt.Printf("graph %s: %d vertices, %d edges (avg deg %.1f)\n",
		d.Graph.Name, d.Graph.NumVertices(), d.Graph.NumEdges(), d.Graph.AvgDegree())
	var jobs []harness.Job[*harness.Report]
	var cells []harness.Workload
	for _, eng := range engines {
		for _, w := range workloads {
			if err := nova.CheckCell(eng.Name(), w); err != nil {
				// checkFlags left only the pairs an engine does not run.
				fmt.Printf("skipped: %v\n", err)
				continue
			}
			cell := harness.Workload{Name: w, G: d.Graph, Root: d.Root, PRIters: prIters, Tier: scale.String()}
			if w == "cc" {
				cell.G = d.Graph.Symmetrize()
			}
			jobs = append(jobs, harness.Job[*harness.Report]{
				Name: fmt.Sprintf("%s/%s", eng.Name(), w),
				Run:  func(ctx context.Context) (*harness.Report, error) { return eng.RunWorkload(ctx, cell) },
			})
			cells = append(cells, cell)
		}
	}
	var busy time.Duration
	pool := &harness.Pool{Workers: jobsN, JobTimeout: timeout, OnDone: func(ev harness.Event) {
		busy += ev.Elapsed
		fmt.Fprintf(os.Stderr, "  [%d/%d] %s (%v)\n", ev.Done, ev.Total, ev.Name, ev.Elapsed.Round(time.Millisecond))
	}}
	start := time.Now()
	results := harness.Map(ctx, pool, jobs)
	wall := time.Since(start)

	fmt.Printf("%-10s %-8s %12s %14s %12s %10s\n", "engine", "workload", "time(ms)", "edges", "eff-gteps", "work-eff")
	failed := 0
	for i, r := range results {
		rep := r.Value
		if r.Err != nil && (rep == nil || !rep.Partial) {
			failed++
			fmt.Printf("%-10s %s\n", r.Name, r.Err)
			continue
		}
		marker := ""
		if rep.Partial {
			// A salvaged cell still renders its stats — they cover the work
			// completed before the stop — but fails the sweep.
			failed++
			marker = fmt.Sprintf("  PARTIAL(%s)", rep.StopReason)
		}
		fmt.Printf("%-10s %-8s %12.3f %14d %12.3f %10.3f%s\n",
			rep.Engine, rep.Workload, rep.Stats.SimSeconds*1e3, rep.Stats.EdgesTraversed,
			rep.EffectiveGTEPS(), rep.WorkEfficiency(), marker)
		if line := detail(rep); line != "" {
			fmt.Printf("  %s\n", line)
		}
		if w := cells[i]; verify && !rep.Partial && slices.Contains([]string{"bfs", "sssp", "cc"}, w.Name) {
			if err := nova.Verify(w.Name, w.G, w.Root, rep.Props); err != nil {
				failed++
				fmt.Printf("  oracle check FAILED: %v\n", err)
			} else {
				fmt.Println("  verified against sequential oracle: OK")
			}
		}
	}
	speedup := 0.0
	if wall > 0 {
		speedup = float64(busy) / float64(wall)
	}
	fmt.Fprintf(os.Stderr, "sweep: %d cells in %v wall (%v busy, jobs=%d, shards=%d, %.2fx vs sequential)\n",
		len(jobs), wall.Round(time.Millisecond), busy.Round(time.Millisecond), jobsN, cfg.Shards, speedup)
	if statsOut != "" {
		check(writeStatsDump(results, d, cfg.Shards, statsOut, wall))
	}
	if failed > 0 {
		// A failed cell must fail the process, or CI reads a partial (even
		// empty) stats dump as a green run.
		fmt.Fprintf(os.Stderr, "novasim: %d of %d cells failed\n", failed, len(jobs))
		os.Exit(1)
	}
}

// detail is the line printed under a polygraph or extmem cell's row, read
// from its stats dump: PolyGraph's slicing and Fig. 2 time split, and
// extmem's schedule and paging. Other engines, and cells without a dump
// (bc), have none.
func detail(rep *harness.Report) string {
	if rep.Dump == nil {
		return ""
	}
	m := rep.Metric
	pct := func(part, whole float64) float64 { return 100 * part / max(whole, 1e-30) }
	switch rep.Engine {
	case "polygraph":
		t := rep.Stats.SimSeconds
		return fmt.Sprintf("slices=%.0f passes=%.0f breakdown: proc=%.1f%% switch=%.1f%% ineff=%.1f%%",
			m(nova.MetricSliceCount), m(nova.MetricSlicePasses), pct(m(nova.MetricProcessingSeconds), t),
			pct(m(nova.MetricSwitchingSeconds), t), pct(m(nova.MetricInefficiencySeconds), t))
	case "extmem":
		return fmt.Sprintf("partitions=%.0f rounds=%.0f loads=%.0f paged=%.0f B io-stall=%.1f%% hit-rate=%.1f%%",
			m(nova.MetricPartitions), m(nova.MetricRounds), m(nova.MetricPartitionLoads), m(nova.MetricBytesPaged),
			pct(m(nova.MetricIOStallTicks), m(nova.MetricCycles)), 100*m(nova.MetricCacheHitRate))
	}
	return ""
}

// writeStatsDump merges every cell's dump (prefixed engine.workload) into
// one file, choosing the sink by extension: .csv, .txt/.text, else JSON.
// Salvaged partial cells (interrupted, timed out, budget-capped) are
// included — their stats cover the work completed before the stop — and
// stamp the dump metadata partial=true so downstream tooling never
// mistakes a truncated sweep for a complete one.
func writeStatsDump(results []harness.Result[*harness.Report], d *exp.Dataset, shards int, path string, wall time.Duration) error {
	var parts []*stats.Dump
	partial := false
	for _, r := range results {
		if r.Value == nil || r.Value.Dump == nil {
			continue // failed cells and two-phase workloads ("bc") have no dump
		}
		if r.Value.Partial {
			partial = true
		}
		parts = append(parts, r.Value.Dump.Prefixed(r.Value.Engine+"."+r.Value.Workload))
	}
	meta := map[string]string{
		"graph":        d.Graph.Name,
		"shards":       fmt.Sprintf("%d", shards),
		"wall_seconds": fmt.Sprintf("%.3f", wall.Seconds()),
	}
	if partial {
		meta["partial"] = "true"
	}
	merged := stats.Merge(meta, parts...)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	switch {
	case strings.HasSuffix(path, ".csv"):
		err = merged.WriteCSV(f)
	case strings.HasSuffix(path, ".txt"), strings.HasSuffix(path, ".text"):
		err = merged.WriteText(f)
	default:
		err = merged.WriteJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "stats: %d records from %d cells written to %s\n",
		len(merged.Records), len(parts), path)
	return nil
}
