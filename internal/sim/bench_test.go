package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// ticker is the pre-allocated recurring-event pattern a component uses:
// one Handler struct, one Event, re-armed with ScheduleEvent per cycle.
type ticker struct {
	e    *Engine
	ev   *Event
	left int
}

func (t *ticker) Fire() {
	t.left--
	if t.left > 0 {
		t.e.ScheduleEvent(t.ev, 1)
	}
}

// arm makes the ticker fire n more times, one tick apart, starting delay
// ticks from now.
func (t *ticker) arm(n int, delay Ticks) {
	t.left = n
	t.e.ScheduleEvent(t.ev, delay)
}

// kernelCases are the event kernel's hot paths. Each setup builds its own
// engine and returns a body that runs n iterations (events, or 64-event
// bursts for FanOut) and may be called again: BenchmarkKernel times one
// call with n = b.N, and TestKernelAllocs requires repeated calls to
// allocate nothing.
var kernelCases = []struct {
	name  string
	setup func(tb testing.TB) func(n int)
}{
	// EventThroughput is the raw event-loop rate, the figure that bounds
	// how large a graph the cycle-level model can simulate per second.
	{"EventThroughput", func(tb testing.TB) func(int) {
		e := NewEngine()
		t := &ticker{e: e}
		t.ev = NewEvent(t)
		return func(n int) {
			t.arm(n, 0)
			runQuiet(tb, e)
		}
	}},
	// EventThroughputFunc is the same loop with pooled one-shot events
	// scheduled through a HandlerFunc, the path ad-hoc callers take.
	{"EventThroughputFunc", func(tb testing.TB) func(int) {
		e := NewEngine()
		left := 0
		var tick func()
		tick = func() {
			left--
			if left > 0 {
				e.Schedule(1, HandlerFunc(tick))
			}
		}
		return func(n int) {
			left = n
			e.Schedule(0, HandlerFunc(tick))
			runQuiet(tb, e)
		}
	}},
	// ScheduleDeschedule is timer churn: a component event armed and
	// cancelled, as a coalescing buffer's flush timer is when the buffer
	// fills first.
	{"ScheduleDeschedule", func(tb testing.TB) func(int) {
		e := NewEngine()
		ev := NewEvent(HandlerFunc(func() {}))
		return func(n int) {
			for i := 0; i < n; i++ {
				e.ScheduleEvent(ev, 1000)
				e.Deschedule(ev)
			}
		}
	}},
	// FanOut is bursty same-tick scheduling (message delivery): 64 events
	// over 8 ticks per iteration.
	{"FanOut", func(tb testing.TB) func(int) {
		e := NewEngine()
		h := HandlerFunc(func() {})
		return func(n int) {
			for i := 0; i < n; i++ {
				for j := 0; j < 64; j++ {
					e.Schedule(Ticks(j%8), h)
				}
				runQuiet(tb, e)
			}
		}
	}},
	// DeepQueue is the kernel at the queue depth and delay mix of a real
	// cell, where the single-pending-event loops above are the queue's
	// best case.
	{"DeepQueue", func(tb testing.TB) func(int) {
		d := newDeepQueue(tb)
		return func(n int) {
			if err := d.e.RunUntilQuiet(d.e.Executed() + uint64(n)); !errors.Is(err, ErrMaxEvents) {
				tb.Fatal(err)
			}
		}
	}},
}

func runQuiet(tb testing.TB, e *Engine) {
	if err := e.RunUntilQuiet(0); err != nil {
		tb.Fatal(err)
	}
}

func BenchmarkKernel(b *testing.B) {
	for _, c := range kernelCases {
		b.Run(c.name, func(b *testing.B) {
			run := c.setup(b)
			b.ReportAllocs()
			b.ResetTimer()
			run(b.N)
		})
	}
}

// TestKernelAllocs pins every kernel hot path at zero allocations once
// the event pool is warm.
func TestKernelAllocs(t *testing.T) {
	for _, c := range kernelCases {
		t.Run(c.name, func(t *testing.T) {
			run := c.setup(t)
			if allocs := testing.AllocsPerRun(10, func() { run(100) }); allocs != 0 {
				t.Errorf("%v allocations per 100 iterations, want 0", allocs)
			}
		})
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

func newDeepQueue(tb testing.TB) *deepQueue {
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
	if err := d.e.RunUntilQuiet(deepPending); !errors.Is(err, ErrMaxEvents) {
		tb.Fatal(err)
	}
	return d
}

// clusterBody builds engines under one Cluster with the crossbar's
// default lookahead of 120 ticks, each engine owning tickersPer tickers.
// The body fires every ticker n more times and runs the cluster to
// quiescence: n·engines·tickersPer events. tickersPer sets the work per
// window (tickersPer·120 events per engine between barriers).
func clusterBody(tb testing.TB, engines, workers, tickersPer int) func(n int) {
	es := make([]*Engine, engines)
	var tickers []*ticker
	for i := range es {
		es[i] = NewEngine()
		for j := 0; j < tickersPer; j++ {
			t := &ticker{e: es[i]}
			t.ev = NewEvent(t)
			tickers = append(tickers, t)
		}
	}
	c, err := NewCluster(es, 120, workers)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	noExchange := func() (int, error) { return 0, nil }
	return func(n int) {
		for j, t := range tickers {
			t.arm(n, Ticks(j%tickersPer))
		}
		if err := c.Run(0, noExchange); err != nil {
			tb.Fatal(err)
		}
	}
}

// clusterCases are the sharded kernel's shapes: the one-engine fast path,
// and 2 and 4 engines with sequential windows and with one worker per
// engine.
var clusterCases = []struct{ engines, workers int }{{1, 1}, {2, 1}, {2, 2}, {4, 1}, {4, 4}}

// BenchmarkCluster reports ns/op per firing of every ticker, so divide by
// engines·tickers for the aggregate time per event across shards. One
// ticker isolates the one-engine wrapper against the raw kernel; 64 per
// engine stand in for a loaded GPN, so the multi-worker cases amortize
// the barrier the way a real window does.
func BenchmarkCluster(b *testing.B) {
	for _, c := range clusterCases {
		tickers := 64
		if c.engines == 1 {
			tickers = 1
		}
		b.Run(fmt.Sprintf("engines=%d/workers=%d/tickers=%d", c.engines, c.workers, tickers), func(b *testing.B) {
			run := clusterBody(b, c.engines, c.workers, tickers)
			b.ReportAllocs()
			b.ResetTimer()
			run(b.N)
		})
	}
}

// TestClusterAllocs pins the cluster's window loop, barrier and worker
// hand-off at zero allocations. 300 firings span three windows.
func TestClusterAllocs(t *testing.T) {
	for _, c := range clusterCases {
		t.Run(fmt.Sprintf("engines=%d/workers=%d", c.engines, c.workers), func(t *testing.T) {
			run := clusterBody(t, c.engines, c.workers, 8)
			if allocs := testing.AllocsPerRun(3, func() { run(300) }); allocs != 0 {
				t.Errorf("%v allocations per run, want 0", allocs)
			}
		})
	}
}

// TestClusterSingleEngineFastPath holds the one-engine cluster to the bare
// kernel loop: on the same schedule it fires exactly the events
// Engine.Run fires, in the same order, and opens no window and times no
// barrier.
func TestClusterSingleEngineFastPath(t *testing.T) {
	bare := tracedRun(t, func(e *Engine) error { return e.RunUntilQuiet(0) })
	clustered := tracedRun(t, func(e *Engine) error {
		c, err := NewCluster([]*Engine{e}, 120, 1)
		if err != nil {
			return err
		}
		defer c.Close()
		if err := c.Run(0, func() (int, error) { return 0, nil }); err != nil {
			return err
		}
		if c.Windows() != 0 || c.WindowSeconds() != 0 || c.BarrierSeconds() != 0 {
			t.Errorf("one-engine cluster ran %d windows (%gs) and %gs of barriers, want none",
				c.Windows(), c.WindowSeconds(), c.BarrierSeconds())
		}
		return nil
	})
	if len(clustered) != len(bare) {
		t.Fatalf("cluster fired %d events, bare engine %d", len(clustered), len(bare))
	}
	for i := range bare {
		if clustered[i] != bare[i] {
			t.Fatalf("firing %d: cluster %+v, bare engine %+v", i, clustered[i], bare[i])
		}
	}
}

type firing struct {
	id int
	at Ticks
}

// tracedRun seeds a fresh engine with a fixed random schedule (same-tick
// ties, and delays past the wheel span into the far heap), runs it with
// run, and returns every firing in order.
func tracedRun(t *testing.T, run func(*Engine) error) []firing {
	e := NewEngine()
	rng := rand.New(rand.NewSource(9))
	var log []firing
	var fire func(id int)
	fire = func(id int) {
		log = append(log, firing{id, e.Now()})
		if len(log) >= 5000 {
			return
		}
		delay := Ticks(rng.Intn(4))
		if rng.Intn(64) == 0 {
			delay = Ticks(2048 + rng.Intn(4096))
		}
		next := len(log)
		e.Schedule(delay, HandlerFunc(func() { fire(next) }))
	}
	for i := 0; i < 16; i++ {
		id := -1 - i
		e.ScheduleAt(Ticks(i%3), HandlerFunc(func() { fire(id) }))
	}
	if err := run(e); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending", e.Pending())
	}
	return log
}
