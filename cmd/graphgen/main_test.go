package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectsBadGeneratorFlags holds graphgen to rejecting, before any
// graph is generated, the flag values at which a generator panicked or
// built a graph other than the one asked for: a degree that gives no edge
// count or more edges than a container holds, a vertex or grid count that
// leaves nothing to summarise, a drop that is no probability, and a
// maximum weight that wraps around uint32. It also holds graphgen to
// refusing the flags it used to ignore without a word: a negative -parts;
// -dump and -parts with a streamed container build, which never holds the
// graph in memory; and a -chunk-edges that is negative or tunes no
// streamed build.
func TestRejectsBadGeneratorFlags(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.csr")
	for _, tc := range []struct {
		name string
		args []string
		flag string
	}{
		{"negative degree", []string{"-kind", "rmat", "-vertices", "1000", "-degree", "-2"}, "-degree"},
		{"NaN degree", []string{"-kind", "rmat", "-vertices", "1000", "-degree", "NaN"}, "-degree"},
		{"infinite degree", []string{"-kind", "uniform", "-vertices", "1000", "-degree", "+Inf"}, "-degree"},
		{"negative degree streamed", []string{"-kind", "rmat", "-vertices", "1000", "-degree", "-2", "-stream"}, "-degree"},
		{"degree past the container's edges", []string{"-kind", "rmat", "-vertices", "1000", "-degree", "1e30"}, "-degree"},
		{"degree past the container's edges streamed", []string{"-kind", "uniform", "-vertices", "1000", "-degree", "1e30", "-stream"}, "-degree"},
		{"one rmat vertex", []string{"-kind", "rmat", "-vertices", "1"}, "-vertices"},
		{"no uniform vertices", []string{"-kind", "uniform", "-vertices", "0"}, "-vertices"},
		{"no grid rows", []string{"-kind", "grid", "-rows", "0"}, "-rows"},
		{"no grid cols", []string{"-kind", "grid", "-rows", "4", "-cols", "0"}, "-cols"},
		{"NaN drop", []string{"-kind", "grid", "-rows", "3", "-cols", "3", "-drop", "NaN"}, "-drop"},
		{"drop above 1", []string{"-kind", "grid", "-rows", "3", "-cols", "3", "-drop", "1.5"}, "-drop"},
		{"negative drop", []string{"-kind", "grid", "-rows", "3", "-cols", "3", "-drop", "-0.1"}, "-drop"},
		{"negative max weight", []string{"-kind", "uniform", "-vertices", "100", "-degree", "2", "-max-weight", "-5"}, "-max-weight"},
		{"max weight past uint32", []string{"-kind", "uniform", "-vertices", "100", "-degree", "2", "-max-weight", "4294967296"}, "-max-weight"},
		{"dump with a streamed container", []string{"-kind", "uniform", "-vertices", "1000", "-degree", "4", "-stream", "-o", out, "-dump"}, "-dump"},
		{"negative parts", []string{"-kind", "uniform", "-vertices", "100", "-degree", "2", "-parts", "-3"}, "-parts"},
		{"parts with a streamed container", []string{"-kind", "uniform", "-vertices", "1000", "-degree", "4", "-stream", "-o", out, "-parts", "4"}, "-parts"},
		{"negative chunk edges streamed", []string{"-kind", "uniform", "-vertices", "1000", "-degree", "4", "-stream", "-o", out, "-chunk-edges", "-5"}, "-chunk-edges"},
		{"negative chunk edges unstreamed", []string{"-kind", "uniform", "-vertices", "1000", "-degree", "4", "-o", out, "-chunk-edges", "-5"}, "-chunk-edges"},
		{"chunk edges without a streamed container", []string{"-kind", "uniform", "-vertices", "1000", "-degree", "4", "-o", out, "-chunk-edges", "64"}, "-chunk-edges"},
		{"chunk edges streamed to no file", []string{"-kind", "uniform", "-vertices", "1000", "-degree", "4", "-stream", "-chunk-edges", "64"}, "-chunk-edges"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.args, &stdout, &stderr)
			if err == nil || !strings.Contains(err.Error(), tc.flag) {
				t.Fatalf("run(%q) = %v, want an error naming %s", tc.args, err, tc.flag)
			}
			if stderr.Len() != 0 {
				t.Fatalf("run(%q) generated before rejecting: %s", tc.args, stderr.String())
			}
		})
	}
}

// TestGeneratesSmallGraphs is the positive control: one small run of each
// kind builds the graph it was asked for.
func TestGeneratesSmallGraphs(t *testing.T) {
	out := filepath.Join(t.TempDir(), "g.csr")
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"rmat", []string{"-kind", "rmat", "-vertices", "100", "-degree", "4", "-stream", "-o", out}, "V=100 E=400 written"},
		{"uniform", []string{"-kind", "uniform", "-vertices", "50", "-degree", "3", "-max-weight", "4294967295"}, "V=50 E=150 "},
		{"grid", []string{"-kind", "grid", "-rows", "3", "-cols", "4", "-drop", "0"}, "V=12 E=34 "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if err := run(tc.args, &stdout, &stderr); err != nil {
				t.Fatalf("run(%q): %v", tc.args, err)
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("run(%q) printed %q, want %q", tc.args, stderr.String(), tc.want)
			}
		})
	}
}
