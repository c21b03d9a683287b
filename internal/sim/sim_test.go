package sim

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(10, HandlerFunc(func() { got = append(got, 2) }))
	e.Schedule(5, HandlerFunc(func() { got = append(got, 1) }))
	e.Schedule(20, HandlerFunc(func() { got = append(got, 3) }))
	if err := e.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %d, want 20", e.Now())
	}
}

func TestTieBreakByInsertion(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(7, HandlerFunc(func() { got = append(got, i) }))
	}
	if err := e.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(got) {
		t.Fatalf("same-tick events fired out of insertion order: %v", got)
	}
}

func TestEventsFireInNondecreasingTime(t *testing.T) {
	// Property: for random schedules (including events scheduled from
	// within events), observed firing times never decrease.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var last Ticks
		ok := true
		var spawn func()
		n := 0
		spawn = func() {
			if last > e.Now() {
				ok = false
			}
			last = e.Now()
			if n < 500 {
				n++
				e.Schedule(Ticks(rng.Intn(50)), HandlerFunc(spawn))
				if rng.Intn(3) == 0 {
					e.Schedule(Ticks(rng.Intn(50)), HandlerFunc(spawn))
					n++
				}
			}
		}
		for i := 0; i < 5; i++ {
			e.Schedule(Ticks(rng.Intn(100)), HandlerFunc(spawn))
		}
		if err := e.RunUntilQuiet(0); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDeschedule(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10, HandlerFunc(func() { fired = true }))
	e.Deschedule(ev)
	e.Deschedule(ev) // idempotent
	if err := e.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("descheduled event fired")
	}
	if ev.Scheduled() {
		t.Fatal("event still reports scheduled")
	}
}

// counter is a reusable Handler for pre-allocated event tests.
type counter struct {
	e  *Engine
	at []Ticks
}

func (c *counter) Fire() { c.at = append(c.at, c.e.Now()) }

func TestRescheduleComponentEvent(t *testing.T) {
	e := NewEngine()
	c := &counter{e: e}
	ev := NewEvent(c)
	e.ScheduleEvent(ev, 10)
	e.Reschedule(ev, 25) // move while pending
	if err := e.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	if len(c.at) != 1 || c.at[0] != 25 {
		t.Fatalf("fired at %v, want [25]", c.at)
	}
	// Revive the fired event — the pre-allocated reuse pattern.
	e.Reschedule(ev, 40)
	if err := e.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	if len(c.at) != 2 || c.at[1] != 40 {
		t.Fatalf("revived event fired at %v, want [25 40]", c.at)
	}
}

func TestPooledEventRecycled(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(1, HandlerFunc(func() {}))
	if err := e.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	// The fired one-shot went back to the pool: the next Schedule must
	// reuse the same Event without allocating.
	ev2 := e.Schedule(1, HandlerFunc(func() {}))
	if ev != ev2 {
		t.Fatal("pooled event was not reused by the next Schedule")
	}
	if err := e.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
}

func TestRescheduleRecycledPanics(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(1, HandlerFunc(func() {}))
	if err := e.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("rescheduling a recycled pooled event did not panic")
		}
	}()
	e.Reschedule(ev, 10)
}

func TestReset(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(1, HandlerFunc(func() { fired++ }))
	if err := e.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	ev := NewEvent(HandlerFunc(func() { fired++ }))
	e.ScheduleEvent(ev, 100)
	e.Schedule(50, HandlerFunc(func() { fired++ }))
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.Executed() != 0 {
		t.Fatalf("Reset left now=%d pending=%d executed=%d", e.Now(), e.Pending(), e.Executed())
	}
	if ev.Scheduled() {
		t.Fatal("component event still scheduled after Reset")
	}
	// The engine is fully reusable: the component event can be re-armed.
	e.ScheduleEvent(ev, 5)
	e.Schedule(3, HandlerFunc(func() { fired++ }))
	if err := e.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	if fired != 3 || e.Now() != 5 {
		t.Fatalf("after Reset: fired=%d now=%d, want 3 at 5", fired, e.Now())
	}
}

func TestHorizon(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(100, HandlerFunc(func() { fired = true }))
	if err := e.Run(50, 0); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if e.Now() != 50 {
		t.Fatalf("Now = %d, want horizon 50", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
}

func TestMaxEvents(t *testing.T) {
	e := NewEngine()
	var tick func()
	n := 0
	tick = func() { n++; e.Schedule(1, HandlerFunc(tick)) }
	e.Schedule(0, HandlerFunc(tick))
	err := e.RunUntilQuiet(1000)
	if !errors.Is(err, ErrMaxEvents) {
		t.Fatalf("err = %v, want ErrMaxEvents", err)
	}
	if n != 1000 {
		t.Fatalf("executed %d, want 1000", n)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	stopErr := errors.New("boom")
	ran := 0
	e.Schedule(1, HandlerFunc(func() { ran++; e.Stop(stopErr) }))
	e.Schedule(2, HandlerFunc(func() { ran++ }))
	if err := e.RunUntilQuiet(0); !errors.Is(err, stopErr) {
		t.Fatalf("err = %v, want %v", err, stopErr)
	}
	if ran != 1 {
		t.Fatalf("ran %d events after stop, want 1", ran)
	}
	// Clean stop returns nil.
	e2 := NewEngine()
	e2.Schedule(1, HandlerFunc(func() { e2.Stop(nil) }))
	if err := e2.RunUntilQuiet(0); err != nil {
		t.Fatalf("clean stop returned %v", err)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, HandlerFunc(func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.ScheduleAt(5, HandlerFunc(func() {}))
	}))
	if err := e.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleScheduleEventPanics(t *testing.T) {
	e := NewEngine()
	ev := NewEvent(HandlerFunc(func() {}))
	e.ScheduleEvent(ev, 10)
	defer func() {
		if recover() == nil {
			t.Error("double ScheduleEvent did not panic")
		}
	}()
	e.ScheduleEvent(ev, 20)
}

func TestClock(t *testing.T) {
	c := Clock{HZ: 2e9}
	if s := c.Seconds(2e9); s != 1.0 {
		t.Fatalf("Seconds(2e9) = %v, want 1", s)
	}
	// 32 bytes at 32 GB/s at 2 GHz = 2 cycles.
	if ticks := c.TicksFor(32, 32e9); ticks != 2 {
		t.Fatalf("TicksFor = %d, want 2", ticks)
	}
	if ticks := c.TicksFor(0, 32e9); ticks != 0 {
		t.Fatalf("TicksFor(0) = %d, want 0", ticks)
	}
	if ticks := c.TicksFor(1, 1e18); ticks != 1 {
		t.Fatalf("tiny transfer must take at least 1 tick, got %d", ticks)
	}
}

func TestTicksForIntegerExact(t *testing.T) {
	c := Clock{HZ: 2e9}
	// Exact division boundary: no off-by-one from rounding up.
	if ticks := c.TicksFor(64, 32e9); ticks != 4 {
		t.Fatalf("TicksFor(64) = %d, want exactly 4", ticks)
	}
	// One byte over the boundary rounds up by exactly one tick.
	if ticks := c.TicksFor(65, 32e9); ticks != 5 {
		t.Fatalf("TicksFor(65) = %d, want 5", ticks)
	}
	// Large transfers: 1 TiB at 32 GB/s and 2 GHz is exactly
	// 2^40 * 2e9 / 32e9 = 68719476736 ticks. float64 has only 52
	// mantissa bits, so the product 2^40 * 2e9 ≈ 2.2e21 is no longer
	// exactly representable and the float path can drift; the integer
	// path must not.
	want := Ticks(1 << 40 * 2 / 32)
	if ticks := c.TicksFor(1<<40, 32e9); ticks != want {
		t.Fatalf("TicksFor(1 TiB) = %d, want %d", ticks, want)
	}
	// Huge transfer whose bytes*HZ product overflows uint64: the 128-bit
	// path must still be exact. 2^60 bytes * 2e9 Hz / 32e9 B/s = 2^60/16.
	want = Ticks(1 << 56)
	if ticks := c.TicksFor(1<<60, 32e9); ticks != want {
		t.Fatalf("TicksFor(2^60) = %d, want %d", ticks, want)
	}
	// Fractional bandwidth falls back to the float path and still rounds
	// up and never returns zero.
	cf := Clock{HZ: 2e9}
	if ticks := cf.TicksFor(1, 0.5); ticks != 4e9 {
		t.Fatalf("TicksFor at 0.5 B/s = %d, want 4e9", ticks)
	}
	// Agreement between paths on a spread of small values.
	for bytes := 1; bytes < 300; bytes += 7 {
		got := c.TicksFor(bytes, 9.6e9)
		wantF := Ticks(math.Ceil(float64(bytes) / 9.6e9 * 2e9))
		if wantF == 0 {
			wantF = 1
		}
		if got != wantF {
			t.Fatalf("TicksFor(%d) = %d, float says %d", bytes, got, wantF)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		e := NewEngine()
		rng := rand.New(rand.NewSource(42))
		var got []int
		var spawn func(id int)
		n := 0
		spawn = func(id int) {
			got = append(got, id)
			if n < 2000 {
				n++
				e.Schedule(Ticks(rng.Intn(10)), HandlerFunc(func() { spawn(n) }))
			}
		}
		e.Schedule(0, HandlerFunc(func() { spawn(-1) }))
		if err := e.RunUntilQuiet(0); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}
