package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nova/internal/stats"
)

// TestSummaryAndStrictExit holds statdiff's summary to counting value
// changes apart from records present on one side only, and -strict to
// failing on a delta above the threshold or on any one-sided record.
func TestSummaryAndStrictExit(t *testing.T) {
	dir := t.TempDir()
	// write dumps counters cycles, edges and spills, as many as vals has.
	write := func(name string, vals ...float64) string {
		d := &stats.Dump{}
		for i, v := range vals {
			p := []string{"cycles", "edges", "spills"}[i]
			d.Records = append(d.Records, stats.Record{Path: p, Stat: p, Kind: stats.KindCounter, Value: v})
		}
		var b bytes.Buffer
		d.WriteJSON(&b) // finite values only: encoding cannot fail
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.json", 1000, 500, 7)
	for _, tc := range []struct {
		name, summary, line string
		vals                []float64
		exit                int
	}{
		{"identical dumps", "0 changed, 0 added, 0 removed, 0 above 2%", "", []float64{1000, 500, 7}, 0},
		{"a change within the threshold", "1 changed, 0 added, 0 removed, 0 above 2%", "+1%", []float64{1010, 500, 7}, 0},
		{"one removed record", "0 changed, 0 added, 1 removed, 1 above 2%", "(removed)", []float64{1000, 500}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			neu := write(tc.name+".json", tc.vals...)
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-strict", old, neu}, &stdout, &stderr); code != tc.exit {
				t.Errorf("-strict: exit %d, want %d", code, tc.exit)
			}
			if want := "3 records compared, " + tc.summary; !strings.Contains(stderr.String(), want) {
				t.Errorf("summary %q, want %q", stderr.String(), want)
			}
			if out := stdout.String(); !strings.Contains(out, tc.line) || tc.line == "" && out != "" {
				t.Errorf("delta lines %q, want one holding %q", out, tc.line)
			}
			if code := run([]string{old, neu}, &stdout, &stderr); code != 0 {
				t.Errorf("without -strict: exit %d, want 0", code)
			}
		})
	}
}

// TestHistogramBucketsAreValues holds statdiff to counting a histogram
// bucket that only one of two fills dumps as a changed value: a change
// of values adds and removes no record.
func TestHistogramBucketsAreValues(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, vals ...uint64) string {
		root := stats.NewRoot()
		var h stats.Histogram
		for _, v := range vals {
			h.Observe(v)
		}
		root.Group("pe0").Histogram(&h, "buffer_occupancy", stats.Entries, "entries in use")
		var b bytes.Buffer
		root.Dump(nil).WriteJSON(&b)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old, neu := write("old.json", 3, 55, 55), write("new.json", 3, 75, 75)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-strict", old, neu}, &stdout, &stderr); code != 1 {
		t.Errorf("-strict: exit %d, want 1 (the moved bucket changes from zero)", code)
	}
	if want := "5 records compared, 3 changed, 0 added, 0 removed"; !strings.Contains(stderr.String(), want) {
		t.Errorf("summary %q, want %q", stderr.String(), want)
	}
	if out := stdout.String(); strings.Contains(out, "(added)") || strings.Contains(out, "(removed)") {
		t.Errorf("delta lines report a one-sided record:\n%s", out)
	}
}
