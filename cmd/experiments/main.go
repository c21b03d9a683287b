// Command experiments regenerates every table and figure of the paper's
// evaluation section on the scaled dataset registry.
//
// Usage:
//
//	experiments -scale small|medium|full|large [-only fig4,tab1] [-jobs N] [-markdown]
//
// Each experiment prints the same rows/series the paper reports, plus a
// note recalling the paper's expected shape. Independent simulation cells
// fan out over -jobs worker goroutines through the harness pool; tables
// land on stdout (byte-identical at any -jobs value for the simulated
// engines), progress and timing lines on stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"nova"
	"nova/internal/exp"
	"nova/internal/harness"
	"nova/internal/prof"
)

func main() {
	scaleFlag := flag.String("scale", "small", "dataset scale: small|medium|full|large")
	onlyFlag := flag.String("only", "", "comma-separated experiment IDs (default: all)")
	markdown := flag.Bool("markdown", false, "emit GitHub markdown instead of aligned text")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "concurrent simulation cells per experiment")
	quiet := flag.Bool("quiet", false, "suppress per-cell progress lines on stderr")
	// The NOVA flags bind straight into the base configuration every
	// experiment cell starts from (exp.NOVAConfig scales it per cell).
	base := nova.DefaultConfig()
	flag.IntVar(&base.Shards, "shards", 1, "simulation worker goroutines per NOVA cell (clamped to the cell's GPN count; results are bit-identical at every setting)")
	flag.Int64Var(&base.CoalesceWindow, "coalesce-window", 0, "in-fabric coalescing window in cycles for every NOVA cell (0 disables; fignet sweeps on/off regardless)")
	profFlags := prof.RegisterFlags()
	flag.Parse()
	defer profFlags.Start()()
	// Validate before any dataset is built: a bad NOVA flag must fail
	// instantly, not after minutes of graph generation.
	if _, err := nova.New(base); err != nil {
		fatal(err)
	}

	if *list {
		for _, id := range exp.IDs() {
			fmt.Println(id)
		}
		return
	}
	scale, err := exp.ParseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}
	ids := exp.IDs()
	if *onlyFlag != "" {
		// Validate the full ID list up front — an unknown ID must fail
		// before any experiment burns time — and keep the user's order.
		ids = strings.Split(*onlyFlag, ",")
		for i, id := range ids {
			ids[i] = strings.TrimSpace(id)
			if _, ok := exp.All[ids[i]]; !ok {
				fatal(fmt.Errorf("unknown experiment %q (use -list)", ids[i]))
			}
		}
	}
	// SIGINT/SIGTERM cancel the sweep context: in-flight cells stop
	// cooperatively, undispatched cells report the cancellation, and the
	// process exits nonzero. A second signal kills the process the default
	// way, because stop() deregisters once the context is cancelled.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	context.AfterFunc(ctx, stopSignals)
	fmt.Printf("NOVA reproduction experiments — scale=%s\n", scale)
	for _, id := range ids {
		cells := 0
		pool := &harness.Pool{Workers: *jobs}
		pool.OnDone = func(ev harness.Event) {
			cells++
			if *quiet {
				return
			}
			status := ""
			if ev.Err != nil {
				status = " FAILED"
			}
			fmt.Fprintf(os.Stderr, "  [%s %d/%d] %s (%v)%s\n",
				id, ev.Done, ev.Total, ev.Name, ev.Elapsed.Round(time.Millisecond), status)
		}
		start := time.Now()
		table, err := exp.All[id](ctx, scale, base, pool)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "experiments: %s interrupted\n", id)
				os.Exit(130)
			}
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		if *markdown {
			table.Markdown(os.Stdout)
		} else {
			table.Render(os.Stdout)
		}
		fmt.Fprintf(os.Stderr, "  [%s completed in %v, %d cells, jobs=%d]\n",
			id, time.Since(start).Round(time.Millisecond), cells, *jobs)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
