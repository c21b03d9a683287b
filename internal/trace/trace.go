// Package trace records simulator activity as Chrome trace-event JSON
// (chrome://tracing / Perfetto), giving the same pipeline visibility
// gem5's trace flags provide: MGU propagation spans, VMU prefetch
// batches, BSP barriers and occupancy counters, per PE.
//
// Produce a trace with `novasim -trace FILE` (nova engine only) or
// programmatically via Accelerator.RunTraced. Tracing complements the
// aggregate view of internal/stats: stats answer "how much, in total",
// a trace answers "when, and overlapping what".
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"nova/internal/sim"
)

// Event is one trace record in the Chrome trace-event format.
type Event struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"` // "X" complete, "i" instant, "C" counter
	TS   float64 `json:"ts"` // microseconds
	Dur  float64 `json:"dur,omitempty"`
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
	Args any     `json:"args,omitempty"`
}

// Tracer collects events. A nil *Tracer is valid and records nothing, so
// call sites need no guards. Events beyond the cap are dropped (and
// counted) to bound memory on long runs.
type Tracer struct {
	clock   sim.Clock
	events  []Event
	cap     int
	dropped uint64
}

// DefaultCap bounds the recorded event count.
const DefaultCap = 1 << 20

// New returns a tracer converting ticks at the given clock frequency.
func New(clockHz float64) *Tracer {
	return &Tracer{clock: sim.Clock{HZ: clockHz}, cap: DefaultCap}
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

func (t *Tracer) us(tick sim.Ticks) float64 { return t.clock.Seconds(tick) * 1e6 }

func (t *Tracer) add(e Event) {
	if len(t.events) >= t.cap {
		t.dropped++
		return
	}
	t.events = append(t.events, e)
}

// Span records a complete event covering [start, end] on lane tid.
func (t *Tracer) Span(cat, name string, tid int, start, end sim.Ticks) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	t.add(Event{Name: name, Cat: cat, Ph: "X", TS: t.us(start), Dur: t.us(end - start), PID: 0, TID: tid})
}

// Instant records a point event.
func (t *Tracer) Instant(cat, name string, tid int, at sim.Ticks) {
	if t == nil {
		return
	}
	t.add(Event{Name: name, Cat: cat, Ph: "i", TS: t.us(at), PID: 0, TID: tid})
}

// Counter records a named counter sample (rendered as a strip chart).
func (t *Tracer) Counter(name string, at sim.Ticks, value float64) {
	if t == nil {
		return
	}
	t.add(Event{Name: name, Cat: "counter", Ph: "C", TS: t.us(at), PID: 0, TID: 0,
		Args: map[string]float64{"value": value}})
}

// WriteJSON emits the Chrome trace file.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}
	payload := struct {
		TraceEvents []Event `json:"traceEvents"`
		Meta        any     `json:"otherData,omitempty"`
	}{
		TraceEvents: t.events,
		Meta: map[string]string{
			"generator": "nova simulator",
			"dropped":   fmt.Sprint(t.dropped),
		},
	}
	enc := json.NewEncoder(w)
	return enc.Encode(payload)
}
