package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// specMetric is one metric declaration in BENCHMARK.json.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// spec is the part of BENCHMARK.json the program and its tests read.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	var s spec
	if err := readJSON(path, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// compareMain is `bench compare [-spec BENCHMARK.json] A.json B.json`: it
// checks record B against base record A and exits 1 on any violation.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-spec BENCHMARK.json] A.json B.json")
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	var a, b record
	for i, r := range []*record{&a, &b} {
		if err := readJSON(fs.Arg(i), r); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
	}
	violations := compareRecords(sp, &a, &b, w)
	for _, v := range violations {
		fmt.Fprintln(w, "VIOLATION:", v)
	}
	if len(violations) > 0 {
		return 1
	}
	fmt.Fprintln(w, "ok: every metric within its bound")
	return 0
}

// compareRecords checks B against base A: hosts must match except for
// the commit; every end-to-end metric may be worse by at most its bound's
// share of A's value; exact counts must be equal; and no operation of B
// may fail. It writes a line per metric and returns the violations.
func compareRecords(sp *spec, a, b *record, w io.Writer) []string {
	ha, hb := a.Host, b.Host
	ha.Commit, hb.Commit = "", ""
	if ha != hb {
		return []string{fmt.Sprintf("records come from different hosts: %+v vs %+v", a.Host, b.Host)}
	}
	if a.Trace != b.Trace {
		return []string{"one record is traced and the other is not"}
	}
	var out []string
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if rb == nil {
			out = append(out, fmt.Sprintf("%s: missing from B", name))
			continue
		}
		if !rb.Correct || rb.Failed > 0 {
			out = append(out, fmt.Sprintf("%s: %d of %d operations failed in B", name, rb.Failed, rb.Attempted))
		}
		for k, va := range ra.Exact {
			if vb, ok := rb.Exact[k]; !ok || vb != va {
				out = append(out, fmt.Sprintf("%s: %s is %v in B, %v in A (must be equal)", name, k, rb.Exact[k], va))
			}
		}
		if a.Trace {
			continue // per-layer metrics carry no bounds
		}
		for _, m := range sp.EndToEnd {
			ma, okA := ra.Metrics[m.Name]
			mb, okB := rb.Metrics[m.Name]
			if !okA || !okB {
				out = append(out, fmt.Sprintf("%s: %s missing", name, m.Name))
				continue
			}
			worse := (mb.Value - ma.Value) / ma.Value
			if m.Better == "higher" {
				worse = -worse
			}
			bound := 0.0
			if m.Bound != nil {
				bound = *m.Bound
			}
			fmt.Fprintf(w, "%-14s %-12s A %12.6g  B %12.6g  worse by %+7.2f%% (bound %.0f%%)\n",
				name, m.Name, ma.Value, mb.Value, 100*worse, 100*bound)
			if worse > bound {
				out = append(out, fmt.Sprintf("%s: %s worse by %.2f%%, bound %.0f%%", name, m.Name, 100*worse, 100*bound))
			}
		}
	}
	return out
}
