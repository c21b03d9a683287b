package main

import (
	"bytes"
	"errors"
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
}

// TestAcceptsPagingFlags is the control for the rejection table: a valid
// command line using the same flags runs to completion on a tiny graph.
func TestAcceptsPagingFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tiny.el")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n2 3\n3 0\n0 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
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
