package sim

import (
	"errors"
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
	ev := NewEvent(HandlerFunc(func() { fired = true }))
	e.ScheduleEvent(ev, 10)
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
	e.Deschedule(ev) // move while pending
	e.ScheduleEventAt(ev, 25)
	if err := e.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	if len(c.at) != 1 || c.at[0] != 25 {
		t.Fatalf("fired at %v, want [25]", c.at)
	}
	// Re-arm the fired event — the pre-allocated reuse pattern.
	e.ScheduleEventAt(ev, 40)
	if err := e.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	if len(c.at) != 2 || c.at[1] != 40 {
		t.Fatalf("revived event fired at %v, want [25 40]", c.at)
	}
}

func TestPooledEventRecycled(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, HandlerFunc(func() {}))
	ev := e.peek()
	if err := e.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	// The fired one-shot went back to the pool: the next Schedule must
	// reuse the same Event without allocating.
	e.Schedule(1, HandlerFunc(func() {}))
	if e.peek() != ev {
		t.Fatal("pooled event was not reused by the next Schedule")
	}
	if err := e.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
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
	// Tick 0 is a horizon like any other; only MaxTicks is none.
	e0 := NewEngine()
	e0.Schedule(0, HandlerFunc(func() {}))
	e0.Schedule(1, HandlerFunc(func() {}))
	if err := e0.Run(0, 0); err != nil {
		t.Fatal(err)
	}
	if e0.Executed() != 1 || e0.Now() != 0 || e0.Pending() != 1 {
		t.Fatalf("Run(0) executed %d events to now=%d, want only tick 0's", e0.Executed(), e0.Now())
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
