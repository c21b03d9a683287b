package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the tests run novasim itself: a re-executed test binary
// with NOVASIM_RUN_MAIN set is the command, parsing its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("NOVASIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// novasim runs the command with args and returns its stdout, stderr and
// exit code.
func novasim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "NOVASIM_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// TestRejectsBadFlagsBeforeBuildingADataset pins every flag combination
// novasim refuses. Each must fail with a "novasim:" message and an empty
// stdout: the first stdout line describes the dataset, so an empty stdout
// proves the rejection came before any graph was generated.
func TestRejectsBadFlagsBeforeBuildingADataset(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	cases := []struct {
		name string
		args []string
	}{
		{"unknown topology", []string{"-topology", "hypercube"}},
		{"unknown ssd preset", []string{"-ssd", "floppy"}},
		{"unknown ssd preset with out-of-core", []string{"-out-of-core", "-ssd", "floppy"}},
		{"unknown ssd preset on extmem", []string{"-engine", "extmem", "-ssd", "floppy"}},
		{"unknown mapping", []string{"-mapping", "bogus"}},
		{"unknown spill policy", []string{"-spill", "bogus"}},
		{"zero gpns", []string{"-gpns", "0"}},
		{"negative coalesce window", []string{"-coalesce-window", "-1"}},
		{"negative coalesce cap", []string{"-coalesce-window", "16", "-coalesce-cap", "-1"}},
		{"negative resident pages", []string{"-ssd-resident-pages", "-1"}},
		{"negative resident pages with out-of-core", []string{"-out-of-core", "-ssd-resident-pages", "-1"}},
		{"negative extmem ram", []string{"-engine", "extmem", "-extmem-ram", "-1"}},
		{"negative extmem partition edges", []string{"-engine", "extmem", "-extmem-part-edges", "-1"}},
		{"coalesce cap without window", []string{"-coalesce-cap", "8"}},
		{"ideal fabric with topology", []string{"-fabric", "ideal", "-topology", "ring"}},
		{"ideal fabric with coalescing", []string{"-fabric", "ideal", "-coalesce-window", "16"}},
		{"resident pages without out-of-core", []string{"-ssd-resident-pages", "64"}},
		{"topology without nova", []string{"-engine", "ligra", "-topology", "ring"}},
		{"coalescing without nova", []string{"-engine", "polygraph", "-coalesce-window", "16"}},
		{"out-of-core without nova", []string{"-engine", "extmem", "-out-of-core"}},
		{"extmem ram without extmem", []string{"-engine", "nova", "-extmem-ram", "4096"}},
		{"extmem partition edges without extmem", []string{"-engine", "polygraph", "-extmem-part-edges", "4096"}},
		{"ssd without a paging engine", []string{"-engine", "ligra", "-ssd", "sata"}},
		{"ssd on in-core nova", []string{"-engine", "nova", "-ssd", "sata"}},
		{"unknown engine", []string{"-engine", "nova,bogus"}},
		{"trace on polygraph", []string{"-engine", "polygraph", "-trace", trace}},
		{"trace on two engines", []string{"-engine", "nova,polygraph", "-trace", trace}},
		{"trace on two workloads", []string{"-workload", "bfs,sssp", "-trace", trace}},
		{"trace on two-phase bc", []string{"-workload", "bc", "-trace", trace}},
		{"trace on sharded workers", []string{"-gpns", "2", "-shards", "2", "-trace", trace}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stdout, stderr, code := novasim(t, c.args...)
			if code != 1 || stdout != "" || !strings.HasPrefix(stderr, "novasim: ") {
				t.Errorf("novasim %s: exit %d, stdout %q, stderr %q; want exit 1 with a novasim: error and no dataset built",
					strings.Join(c.args, " "), code, stdout, stderr)
			}
		})
	}
	if _, err := os.Stat(trace); err == nil {
		t.Error("a rejected -trace run wrote its trace file")
	}
}

// tinyGraph writes the five-edge test graph and returns its path.
func tinyGraph(t *testing.T) string {
	path := filepath.Join(t.TempDir(), "tiny.el")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n2 3\n3 0\n0 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// ringGraph writes a 400-vertex weighted ring with two chords per vertex,
// big enough that a cell's simulated time shows in a printed row.
func ringGraph(t *testing.T) string {
	var b strings.Builder
	const n = 400
	for v := 0; v < n; v++ {
		fmt.Fprintf(&b, "%d %d %d\n", v, (v+1)%n, 1+v%5)
		fmt.Fprintf(&b, "%d %d %d\n", v, (7*v+3)%n, 1+v%7)
		fmt.Fprintf(&b, "%d %d %d\n", v, (13*v+11)%n, 2+v%3)
	}
	path := filepath.Join(t.TempDir(), "ring.el")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// row returns the stdout line holding the engine/workload cell's row.
func row(t *testing.T, stdout, engine, workload string) string {
	t.Helper()
	for _, line := range strings.Split(stdout, "\n") {
		if f := strings.Fields(line); len(f) > 2 && f[0] == engine && f[1] == workload {
			return line
		}
	}
	t.Fatalf("no %s/%s row in:\n%s", engine, workload, stdout)
	return ""
}

// TestAcceptsPagingFlags is the control for the rejection table: a valid
// command line using the same flags runs to completion on a tiny graph.
func TestAcceptsPagingFlags(t *testing.T) {
	path := tinyGraph(t)
	for _, args := range [][]string{
		{"-engine", "nova", "-workload", "bfs", "-graph-file", path, "-gpns", "2", "-topology", "ring", "-coalesce-window", "16", "-coalesce-cap", "8"},
		{"-engine", "nova,extmem", "-workload", "bfs", "-graph-file", path, "-out-of-core", "-ssd", "sata",
			"-ssd-resident-pages", "4", "-extmem-ram", "4096", "-extmem-part-edges", "4"},
	} {
		stdout, stderr, code := novasim(t, args...)
		if code != 0 {
			t.Errorf("novasim %s: exit %d\nstdout:\n%s\nstderr:\n%s", strings.Join(args, " "), code, stdout, stderr)
		}
	}
}

// TestSingleCellTimeout pins -timeout on a one-cell run: the cell stops
// at its deadline, renders a PARTIAL(deadline) row, and fails the process.
func TestSingleCellTimeout(t *testing.T) {
	stdout, stderr, code := novasim(t, "-engine", "nova", "-workload", "sssp", "-timeout", "1ms")
	if code != 1 || !strings.Contains(row(t, stdout, "nova", "sssp"), "PARTIAL(deadline)") {
		t.Fatalf("exit %d; want 1 with a PARTIAL(deadline) nova/sssp row\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

// TestVerifyChecksEverySweepCell pins -verify on a sweep: each bfs, sssp
// and cc cell of every engine gets one oracle check.
func TestVerifyChecksEverySweepCell(t *testing.T) {
	stdout, stderr, code := novasim(t, "-engine", "nova,polygraph,ligra,extmem", "-workload", "bfs,sssp,cc",
		"-graph-file", tinyGraph(t), "-verify")
	if n := strings.Count(stdout, "verified against sequential oracle: OK"); code != 0 || n != 12 {
		t.Fatalf("exit %d with %d oracle checks; want 0 with 12\nstdout:\n%s\nstderr:\n%s", code, n, stdout, stderr)
	}
}

// TestSingleCellMatchesSweepRow pins the one way to run a cell: a cell
// run alone prints the same row as that cell inside a two-engine sweep.
func TestSingleCellMatchesSweepRow(t *testing.T) {
	path := ringGraph(t)
	run := func(engine, workload string) string {
		stdout, stderr, code := novasim(t, "-engine", engine, "-workload", workload, "-graph-file", path)
		if code != 0 {
			t.Fatalf("novasim -engine %s -workload %s: exit %d\nstderr:\n%s", engine, workload, code, stderr)
		}
		return stdout
	}
	for _, w := range []string{"sssp", "pr"} {
		swept := run("nova,polygraph", w)
		for _, e := range []string{"nova", "polygraph"} {
			if a, b := row(t, run(e, w), e, w), row(t, swept, e, w); a != b {
				t.Errorf("%s/%s row alone %q, in a sweep %q", e, w, a, b)
			}
		}
	}
}

// TestTraceWritesOneCell is the control for the -trace rejections: one
// nova cell of a single-phase workload writes its trace, alongside
// -stats-out.
func TestTraceWritesOneCell(t *testing.T) {
	dir := t.TempDir()
	trace, statsOut := filepath.Join(dir, "trace.json"), filepath.Join(dir, "stats.json")
	stdout, stderr, code := novasim(t, "-engine", "nova", "-workload", "bfs", "-graph-file", ringGraph(t),
		"-trace", trace, "-stats-out", statsOut)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	var parsed struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	b, err := os.ReadFile(trace)
	if err == nil {
		err = json.Unmarshal(b, &parsed)
	}
	if err != nil || len(parsed.TraceEvents) == 0 {
		t.Fatalf("trace %s: %d events, err %v", trace, len(parsed.TraceEvents), err)
	}
	if _, err := os.Stat(statsOut); err != nil {
		t.Fatal(err)
	}
}
