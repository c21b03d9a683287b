package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Span("a", "b", 0, 0, 10)
	tr.Instant("a", "b", 0, 5)
	tr.Counter("c", 5, 1)
	if tr.Len() != 0 {
		t.Fatal("nil tracer recorded something")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != `{"traceEvents":[]}` {
		t.Fatalf("nil tracer JSON = %q", buf.String())
	}
}

func TestTracerRecordsAndSerializes(t *testing.T) {
	tr := New(2e9)
	tr.Span("mgu", "propagate", 3, 2000, 4000) // 1us..2us
	tr.Instant("vmu", "prefetch-batch", 1, 2000)
	tr.Counter("active", 2000, 42)
	if tr.Len() != 3 {
		t.Fatalf("len = %d", tr.Len())
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(parsed.TraceEvents) != 3 {
		t.Fatalf("parsed %d events", len(parsed.TraceEvents))
	}
	span := parsed.TraceEvents[0]
	if span.Ph != "X" || span.TS != 1.0 || span.Dur != 1.0 || span.TID != 3 {
		t.Fatalf("span = %+v", span)
	}
}

func TestTracerCap(t *testing.T) {
	tr := New(1e9)
	tr.cap = 5
	for i := 0; i < 10; i++ {
		tr.Instant("x", "y", 0, 1)
	}
	if tr.Len() != 5 {
		t.Fatalf("len = %d, want capped at 5", tr.Len())
	}
	if tr.dropped != 5 {
		t.Fatalf("dropped = %d, want 5", tr.dropped)
	}
}

func TestSpanClampsReversedRange(t *testing.T) {
	tr := New(1e9)
	tr.Span("a", "b", 0, 100, 50)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.TraceEvents[0].Dur != 0 {
		t.Fatal("reversed span not clamped")
	}
}
