// Command bench is the repository benchmark. It runs one workload (or,
// with no -workload, all four, each in its own child process so peak
// memory and GC state are per workload), checks every operation's output,
// and prints the workload's metrics by name with their units. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 24, "failed": 0, "metrics": {"op_p50_ms": {"value": 951.2, "unit": "ms"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones BENCHMARK.json names,
// their times scaled to host speed (hostspeed.go); with -trace 1 they are
// its per-layer ones, measured by recording a span around each call the
// benchmark makes into a layer's public API.
//
//	go run . -workload sssp-rmat -seed 1 -seconds 20
//	go run . -seed 1 -out A.json                 # all workloads, full record
//	go run . -seed 1 -trace 1 -spans spans.json  # per-layer run, spans kept
//	go run . compare A.json B.json               # apply BENCHMARK.json bounds
//
// See README.md for the workloads, metrics and bounds.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 20

// Each workload sets up at least minSetups times and for at least
// setupBudget, but at most maxSetups times; setup_s is the median, so
// neither one slow set-up nor the noise of a millisecond-scale one moves
// it. The reference kernel is timed before the first set-up and after
// each group of set-ups that ran for setupGroup.
const (
	minSetups   = 5
	maxSetups   = 100
	setupBudget = time.Second
	setupGroup  = 200 * time.Millisecond
)

// timeSetups runs setup, which returns the seconds its timed part took,
// as often as the constants above say, and scales each time by the kernel
// timings around its group.
func timeSetups(hs *hostSpeed, setup func() (float64, error)) (measured, error) {
	var m measured
	more := func(n int, begin time.Time) bool {
		return n < minSetups || (n < maxSetups && time.Since(begin) < setupBudget)
	}
	hs.sample()
	for begin := time.Now(); more(len(m.raw), begin); {
		var group []float64
		for g0 := time.Now(); len(group) == 0 || (time.Since(g0) < setupGroup && more(len(m.raw)+len(group), begin)); {
			t, err := setup()
			if err != nil {
				return m, err
			}
			group = append(group, t)
		}
		hs.sample()
		k := hs.bracket()
		for _, t := range group {
			m.add(t, k)
		}
	}
	return m, nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the per-workload object the last output line carries.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadRecord is a result plus what compare mode and readers of a
// record need beyond it.
type workloadRecord struct {
	result
	// Exact holds simulated counts that must repeat exactly on every
	// operation and across records (sim.events, core.cycles).
	Exact map[string]float64 `json:"exact,omitempty"`
	// Latency summarizes the measured operations' raw wall times in ms.
	Latency summary `json:"latency_ms"`
	// Raw holds the end-to-end times before host-speed scaling, and the
	// reference kernel's median time the scaling used (ref_ms).
	Raw map[string]float64 `json:"raw,omitempty"`
	// Errors lists the first failures, for diagnosis.
	Errors []string `json:"errors,omitempty"`
}

// fail counts one failed operation and keeps its message.
func (r *workloadRecord) fail(err error) {
	r.Failed++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// record is the file -out writes and compare reads.
type record struct {
	Host      hostInfo                   `json:"host"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Trace     bool                       `json:"trace"`
	Workloads map[string]*workloadRecord `json:"workloads"`
}

// hostInfo describes where a record was measured. Compare refuses records
// whose hosts differ in anything but the commit.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func currentHost() hostInfo {
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		Commit:     commit(),
	}
}

// commit reads the VCS revision stamped into the binary, falling back to
// asking git (a checkout without .git has neither: "unknown").
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB, or the
// Go runtime's total obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	warmup  time.Duration // sim workloads' unmeasured lead-in
	tr      *tracer       // nil unless -trace 1
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (empty = all, each in a child process)")
	seed := fs.Int64("seed", 1, "seed for the workload's graph generator and serve roots")
	seconds := fs.Float64("seconds", defaultSeconds, "measured wall time per workload")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1, write the recorded spans to this JSON file")
	out := fs.String("out", "", "write the full record (host, metrics, exact counts, latency) here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	runtime.GOMAXPROCS(1) // see workloads
	rec := &record{Host: currentHost(), Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Workloads: map[string]*workloadRecord{}}
	if *name == "" {
		return runAll(rec, *spans, *out)
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	rc := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), warmup: 2 * time.Second}
	if *trace == 1 {
		rc.tr = newTracer()
	}
	wr, err := w.run(rc)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if rc.tr != nil {
		printSelf(os.Stderr, rc.tr.totals())
		if *spans != "" {
			if err := rc.tr.writeFile(*spans); err != nil {
				return err
			}
		}
	}
	rec.Workloads[w.name] = wr
	if *out != "" {
		if err := writeRecord(*out, rec); err != nil {
			return err
		}
	}
	printMetrics(os.Stdout, w.name, wr)
	line, err := json.Marshal(wr.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAll runs every workload in its own child process, one at a time,
// and merges their records.
func runAll(rec *record, spans, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "novabench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	for _, w := range workloads {
		part := filepath.Join(tmp, w.name+".json")
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(rec.Seed, 10),
			"-seconds", strconv.FormatFloat(rec.Seconds, 'g', -1, 64), "-out", part}
		if rec.Trace {
			args = append(args, "-trace", "1")
			if spans != "" {
				args = append(args, "-spans", strings.TrimSuffix(spans, ".json")+"."+w.name+".json")
			}
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		fmt.Fprintf(os.Stderr, "== %s\n", w.name)
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		var child record
		if err := readJSON(part, &child); err != nil {
			return err
		}
		rec.Workloads[w.name] = child.Workloads[w.name]
	}
	var buf bytes.Buffer
	for _, w := range workloads {
		printMetrics(&buf, w.name, rec.Workloads[w.name])
	}
	fmt.Print(buf.String())
	if out != "" {
		if err := writeRecord(out, rec); err != nil {
			return err
		}
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	for _, w := range workloads {
		if r := rec.Workloads[w.name]; !r.Correct {
			return fmt.Errorf("%s: %d of %d operations failed", w.name, r.Failed, r.Attempted)
		}
	}
	return nil
}

// printMetrics writes one "workload metric value unit" line per metric.
func printMetrics(w io.Writer, name string, r *workloadRecord) {
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%-14s %-24s %14.6g %s\n", name, k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	keys = keys[:0]
	for k := range r.Raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%-14s %-24s %14.6g (unscaled)\n", name, "raw."+k, r.Raw[k])
	}
	fmt.Fprintf(w, "%-14s %-24s %14d of %d failed\n", name, "operations", r.Failed, r.Attempted)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "%-14s error: %s\n", name, e)
	}
}

func writeRecord(path string, rec *record) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
