package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadtestRejectsEmptyRuns holds loadtest to rejecting, before any
// graph or server is built, every setting that would send no request or a
// request with an empty engine or workload. The -csr path does not exist,
// so a check that ran after registration would fail on the graph instead.
func TestLoadtestRejectsEmptyRuns(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.csr")
	for _, tc := range []struct {
		name string
		args []string
		flag string
	}{
		{"zero clients", []string{"-clients", "0"}, "-clients"},
		{"negative clients", []string{"-clients", "-3"}, "-clients"},
		{"zero rounds", []string{"-rounds", "0"}, "-rounds"},
		{"trailing comma in engines", []string{"-engines", "nova,"}, "-engines"},
		{"empty engines", []string{"-engines", ""}, "-engines"},
		{"trailing comma in workloads", []string{"-workloads", "bfs,"}, "-workloads"},
		{"blank workload", []string{"-workloads", " ,pr"}, "-workloads"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := loadtest(append([]string{"-csr", missing, "-clients", "1", "-rounds", "1"}, tc.args...))
			if err == nil || !strings.Contains(err.Error(), tc.flag) {
				t.Fatalf("loadtest(%q) = %v, want an error naming %s", tc.args, err, tc.flag)
			}
		})
	}
}

// TestLoadtestWarmRoundHits is the positive control: a tiny in-process run
// passes, and its identical second round is served from the cache.
func TestLoadtestWarmRoundHits(t *testing.T) {
	err := loadtest([]string{"-clients", "1", "-rounds", "2", "-vertices", "200",
		"-engines", "nova", "-workloads", "bfs,sssp", "-min-hit-rate", "0.5"})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunCellFailsPartialJob holds a request whose job ended done but
// partial (a deadline or budget stop) to a failure: a load test that
// counted it as served would pass on truncated runs.
func TestRunCellFailsPartialJob(t *testing.T) {
	const status = `{"id":"j-000001","state":"done","partial":true,"stop_reason":"deadline"}`
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, status) })
	mux.HandleFunc("GET /jobs/j-000001", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, status) })
	mux.HandleFunc("GET /jobs/j-000001/result", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, `{}`) })
	ts := httptest.NewServer(mux)
	defer ts.Close()
	_, err := runCell(ts.Client(), ts.URL, cell{"nova", "bfs"}, "g", 0)
	if err == nil || !strings.Contains(err.Error(), "PARTIAL (deadline)") {
		t.Fatalf("runCell on a partial job = %v, want a PARTIAL (deadline) failure", err)
	}
}
