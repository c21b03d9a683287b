package main

import (
	"bytes"
	"math"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"nova/graph"
)

func TestQuantilesExact(t *testing.T) {
	// 1..100 in scrambled order: interpolated ranks are exact.
	var xs []float64
	for i := 0; i < 100; i++ {
		xs = append(xs, float64((i*37)%100+1))
	}
	s := summarize(xs)
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"p50", s.P50, 50.5}, {"p90", s.P90, 90.1}, {"p99", s.P99, 99.01}} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	// Squares 1²..101²: the median lands exactly on rank 51.
	xs = xs[:0]
	for i := 101; i >= 1; i-- {
		xs = append(xs, float64(i*i))
	}
	if got := summarize(xs).P50; got != 51*51 {
		t.Errorf("median of squares = %v, want %v", got, 51*51)
	}
	if got := summarize(nil); got.N != 0 || got.P99 != 0 {
		t.Errorf("empty summary = %+v", got)
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		tail string
	}{{5, "p50"}, {20, "p50"}, {99, "p50"}, {100, "p90"}, {999, "p90"}, {1000, "p99"}, {10000, "p99.9"}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if got := summarize(xs).Tail; got != c.tail {
			t.Errorf("n=%d: tail %s, want %s", c.n, got, c.tail)
		}
	}
}

func readSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestSpecMatchesProgram(t *testing.T) {
	sp := readSpec(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var names []string
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !valid.MatchString(m.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
		}
		names = append(names, m.Name)
	}
	var wls []string
	for _, w := range sp.Workloads {
		wls = append(wls, w.Name)
	}
	if got, want := strings.Join(wls, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program %s", got, want)
	}
	if sp.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", sp.RunSeconds, defaultSeconds)
	}
	sort.Strings(names)
	for i := 1; i < len(names); i++ {
		if names[i] == names[i-1] {
			t.Errorf("metric %s declared twice", names[i])
		}
	}
}

// tiny shrinks every workload to a size the test suite can afford.
var tiny = map[string]func(runConfig) (*workloadRecord, error){
	"sssp-rmat":     shrink(ssspRMAT, func(seed int64) *graph.CSR { return graph.GenRMATN("t", 600, 8, graph.DefaultRMAT, 64, seed) }),
	"prdelta-spill": shrink(prdeltaSpill, func(seed int64) *graph.CSR { return graph.GenRMATN("t", 300, 8, graph.DefaultRMAT, 64, seed) }),
	"pr-road":       shrink(prRoad, func(seed int64) *graph.CSR { return graph.GenGrid("t", 20, 16, 0.39, 64, seed) }),
	"serve-zipf": func(rc runConfig) (*workloadRecord, error) {
		s := serveZipf
		s.vertices, s.warmup = 400, 30
		return s.run(rc)
	},
}

func shrink(s simWorkload, gen func(int64) *graph.CSR) func(runConfig) (*workloadRecord, error) {
	s.gen = gen
	return s.run
}

// TestWorkloadsSmoke runs every workload at the tiny size, untraced and
// traced, and checks that each passes its own correctness checks and
// emits exactly the metrics BENCHMARK.json declares, with their units.
func TestWorkloadsSmoke(t *testing.T) {
	sp := readSpec(t)
	for _, w := range workloads {
		run := tiny[w.name]
		if run == nil {
			t.Fatalf("no tiny variant of %s", w.name)
		}
		for _, traced := range []bool{false, true} {
			rc := runConfig{seed: 3, seconds: 300 * time.Millisecond}
			want := sp.EndToEnd
			if traced {
				rc.tr = newTracer()
				want = sp.PerLayer
			}
			rec, err := run(rc)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < minOps {
				t.Errorf("%s traced=%v: %d of %d failed: %v", w.name, traced, rec.Failed, rec.Attempted, rec.Errors)
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rec.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: %s = %+v, want a number in %s", w.name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}

func testRecord(opMS float64) *record {
	return &record{
		Host: hostInfo{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24", GOOS: "linux", GOARCH: "amd64", CPU: "x", Commit: "a"},
		Workloads: map[string]*workloadRecord{"sssp-rmat": {
			result: result{Correct: true, Attempted: 10, Metrics: map[string]metric{
				"setup_s": {0.4, "s"}, "op_p50_ms": {opMS, "ms"},
				"ops_per_s": {1000 / opMS, "1/s"}, "peak_rss_mb": {90, "MB"},
			}},
			Exact: map[string]float64{"sim.events": 3642270, "core.cycles": 154602},
		}},
	}
}

func TestCompare(t *testing.T) {
	sp := readSpec(t)
	var log bytes.Buffer
	a, b := testRecord(700), testRecord(710)
	b.Host.Commit = "b" // records of different commits are what compare is for
	if v := compareRecords(sp, a, b, &log); len(v) != 0 {
		t.Errorf("1.4%% slower flagged: %v", v)
	}

	slow := testRecord(900)
	if v := compareRecords(sp, a, slow, &log); len(v) == 0 || !strings.Contains(strings.Join(v, ";"), "op_p50_ms") {
		t.Errorf("29%% slower op_p50_ms not flagged: %v", v)
	}

	other := testRecord(700)
	other.Host.NumCPU = 8
	if v := compareRecords(sp, a, other, &log); len(v) != 1 || !strings.Contains(v[0], "different hosts") {
		t.Errorf("host mismatch not refused: %v", v)
	}

	drift := testRecord(700)
	drift.Workloads["sssp-rmat"].Exact["core.cycles"]++
	if v := compareRecords(sp, a, drift, &log); len(v) != 1 || !strings.Contains(v[0], "core.cycles") {
		t.Errorf("cycle drift not flagged: %v", v)
	}

	failed := testRecord(700)
	failed.Workloads["sssp-rmat"].Failed = 1
	if v := compareRecords(sp, a, failed, &log); len(v) != 1 {
		t.Errorf("failed operation not flagged: %v", v)
	}
}
