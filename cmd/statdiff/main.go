// Command statdiff compares two statistics dumps written by
// novasim -stats-out and reports per-record deltas.
//
// Usage:
//
//	statdiff [-threshold PCT] [-strict] [-include-volatile] [-all] OLD.json NEW.json
//
// By default only changed, added and removed records print, volatile
// records (wall-clock timings, racy parallel counters) are skipped, and
// the exit code is 0 regardless of deltas — suitable as a warn-only CI
// step. The summary counts value changes apart from records present on
// one side only, so a schema change does not read as a regression. A
// record of a stat that both dumps hold, such as a histogram bucket that
// emptied, is a value change whose missing side reads 0. With
// -strict the command exits 1 when any compared delta exceeds -threshold
// percent or any record is present on only one side. Exit code 2 signals
// a usage or I/O error.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"nova/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is statdiff with its arguments and output streams injected; it
// returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("statdiff", flag.ExitOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 2, "percent change above which a delta counts as a regression")
	strict := fs.Bool("strict", false, "exit 1 when any delta exceeds -threshold or any record is added or removed")
	includeVolatile := fs.Bool("include-volatile", false, "also compare records marked volatile")
	all := fs.Bool("all", false, "print unchanged records too")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: statdiff [flags] OLD.json NEW.json\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	oldDump, err := readDump(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "statdiff: %v\n", err)
		return 2
	}
	newDump, err := readDump(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "statdiff: %v\n", err)
		return 2
	}
	deltas := stats.Diff(oldDump, newDump, *includeVolatile)

	changed, added, removed, exceeded := 0, 0, 0, 0
	for _, d := range deltas {
		switch {
		case !d.OldOK:
			added++
		case !d.NewOK:
			removed++
		case d.Changed():
			changed++
		}
		over := d.Exceeds(*threshold)
		if over {
			exceeded++
		}
		if !*all && !d.Changed() {
			continue
		}
		fmt.Fprintln(stdout, render(d, over))
	}
	fmt.Fprintf(stderr, "statdiff: %d records compared, %d changed, %d added, %d removed, %d above %.3g%%\n",
		len(deltas), changed, added, removed, exceeded, *threshold)
	if *strict && exceeded > 0 {
		return 1
	}
	return 0
}

func readDump(path string) (*stats.Dump, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := stats.ReadJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// render formats one delta line; regressions above threshold get a
// leading "!" so they stand out in CI logs.
func render(d stats.Delta, over bool) string {
	mark := " "
	if over {
		mark = "!"
	}
	switch {
	case !d.OldOK:
		return fmt.Sprintf("%s %-60s (added)        -> %g", mark, d.Path, d.New)
	case !d.NewOK:
		return fmt.Sprintf("%s %-60s (removed)      %g ->", mark, d.Path, d.Old)
	case !d.Changed():
		return fmt.Sprintf("  %-60s unchanged      %g", d.Path, d.Old)
	default:
		pct := d.Pct()
		p := fmt.Sprintf("%+.3g%%", pct)
		if math.IsInf(pct, 0) {
			p = "from zero"
		}
		return fmt.Sprintf("%s %-60s %-14s %g -> %g", mark, d.Path, p, d.Old, d.New)
	}
}
