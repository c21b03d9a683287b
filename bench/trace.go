package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the layer's public API. All spans of one cell or request share Op.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for an operation's root span
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths need no second copy.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(op, parent int, name, layer string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Layer: layer, Start: now})
	return id
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.End - s.Start
}

// add records a span whose interval the benchmark did not time itself but
// read from a layer's own report, placed at offset seconds into parent.
func (t *tracer) add(op, parent int, name, layer string, offset, dur float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.spans[parent-1].Start + offset
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Layer: layer,
		Start: start, End: start + dur})
}

// call runs f inside a span.
func (t *tracer) call(op, parent int, name, layer string, f func()) {
	id := t.begin(op, parent, name, layer)
	f()
	t.end(id)
}

// spanTotals is one span name's totals over a run.
type spanTotals struct {
	Layer string
	N     int
	Total float64 // summed durations, seconds
	Self  float64 // summed durations minus their children's, seconds
}

// totals aggregates spans by name. A span's self time is its duration
// minus its children's durations: children of one span never overlap
// (each operation calls its layers one after another), so their summed
// durations are exactly the part of the parent they cover.
func (t *tracer) totals() map[string]*spanTotals {
	out := make(map[string]*spanTotals)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]float64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		a := out[s.Name]
		if a == nil {
			a = &spanTotals{Layer: s.Layer}
			out[s.Name] = a
		}
		a.N++
		a.Total += s.End - s.Start
		a.Self += s.End - s.Start - child[s.ID]
	}
	return out
}

// printSelf writes the self-time table, largest first.
func printSelf(w io.Writer, tot map[string]*spanTotals) {
	names := make([]string, 0, len(tot))
	var sum float64
	for n, a := range tot {
		names = append(names, n)
		sum += a.Self
	}
	sort.Slice(names, func(i, j int) bool { return tot[names[i]].Self > tot[names[j]].Self })
	fmt.Fprintf(w, "self time by span (%.3f s traced):\n", sum)
	for _, n := range names {
		a := tot[n]
		fmt.Fprintf(w, "  %-8s %-24s %6d spans %10.4f s self  %5.1f%%\n", a.Layer, n, a.N, a.Self, 100*a.Self/sum)
	}
}

// writeFile writes every span as JSON.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
