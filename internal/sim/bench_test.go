package sim

import (
	"errors"
	"math/rand"
	"testing"
)

// ticker is the pre-allocated recurring-event pattern every converted
// component uses: one Handler struct, one Event, Reschedule per cycle.
type ticker struct {
	e   *Engine
	ev  *Event
	n   int
	max int
}

func (t *ticker) Fire() {
	t.n++
	if t.n < t.max {
		t.e.Reschedule(t.ev, t.e.Now()+1)
	}
}

// BenchmarkEventThroughput measures raw event-loop rate — the figure that
// bounds how large a graph the cycle-level model can simulate per second.
// The pooled-reschedule pattern must be allocation-free.
func BenchmarkEventThroughput(b *testing.B) {
	e := NewEngine()
	t := &ticker{e: e, max: b.N}
	t.ev = NewEvent(t)
	b.ReportAllocs()
	b.ResetTimer()
	e.ScheduleEvent(t.ev, 0)
	if err := e.RunUntilQuiet(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventThroughputFunc is the same loop through the ScheduleFunc
// compat shim with pooled one-shot events — the path unconverted or ad-hoc
// callers take.
func BenchmarkEventThroughputFunc(b *testing.B) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.ScheduleFunc(1, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.ScheduleFunc(0, tick)
	if err := e.RunUntilQuiet(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkScheduleDeschedule measures timer churn (MGU/prefetch usage).
func BenchmarkScheduleDeschedule(b *testing.B) {
	e := NewEngine()
	h := HandlerFunc(func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.Schedule(1000, h)
		e.Deschedule(ev)
	}
}

// BenchmarkReschedulePending measures moving an armed timer, the cheapest
// state-machine operation (deadline extension).
func BenchmarkReschedulePending(b *testing.B) {
	e := NewEngine()
	ev := NewEvent(HandlerFunc(func() {}))
	e.ScheduleEvent(ev, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reschedule(ev, 1000+Ticks(i&1))
	}
}

// BenchmarkFanOut measures bursty same-tick scheduling (message delivery).
func BenchmarkFanOut(b *testing.B) {
	e := NewEngine()
	h := HandlerFunc(func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			e.Schedule(Ticks(j%8), h)
		}
		if err := e.RunUntilQuiet(0); err != nil {
			b.Fatal(err)
		}
	}
}

// deepQueue keeps deepPending pooled one-shots in flight, like a loaded
// GPN: each firing schedules a replacement with the next delay from a
// table drawn to the NOVA cells' measured mix. The seeded table holds 36%
// at +1 tick, 28% in [128, 256), and a tail to ~8k ticks with 0.2% (8 of
// 4,096) past 2,048.
type deepQueue struct {
	e      *Engine
	delays []Ticks
	i      int
}

const deepPending = 1000

func (d *deepQueue) Fire() {
	d.e.Schedule(d.delays[d.i&(len(d.delays)-1)], d)
	d.i++
}

func newDeepQueue(b *testing.B) *deepQueue {
	rng := rand.New(rand.NewSource(1))
	d := &deepQueue{e: NewEngine(), delays: make([]Ticks, 4096)}
	for i := range d.delays {
		switch p := rng.Float64(); {
		case p < 0.35:
			d.delays[i] = 1
		case p < 0.63:
			d.delays[i] = Ticks(128 + rng.Intn(128))
		case p < 0.83:
			d.delays[i] = Ticks(2 + rng.Intn(126))
		case p < 0.999:
			d.delays[i] = Ticks(256 + rng.Intn(2048-256))
		default:
			d.delays[i] = Ticks(2048 + rng.Intn(6144))
		}
	}
	for i := 0; i < deepPending; i++ {
		d.Fire()
	}
	// One pass through the population fills the event pool.
	if err := d.e.Run(0, deepPending); !errors.Is(err, ErrMaxEvents) {
		b.Fatal(err)
	}
	return d
}

// BenchmarkDeepQueue measures the kernel at the queue depth and delay mix
// of a real cell, where the single-pending-event loops above are the
// queue's best case.
func BenchmarkDeepQueue(b *testing.B) {
	d := newDeepQueue(b)
	b.ReportAllocs()
	b.ResetTimer()
	if err := d.e.Run(0, d.e.Executed()+uint64(b.N)); !errors.Is(err, ErrMaxEvents) {
		b.Fatal(err)
	}
}
