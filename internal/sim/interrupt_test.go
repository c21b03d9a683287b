package sim

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestInterruptFirstTripWins(t *testing.T) {
	i := NewInterrupt()
	if i.Err() != nil {
		t.Fatal("fresh interrupt reports an error")
	}
	e1 := errors.New("one")
	e2 := errors.New("two")
	i.Trip(nil) // ignored
	if i.Err() != nil {
		t.Fatal("nil trip took effect")
	}
	i.Trip(e1)
	i.Trip(e2)
	if got := i.Err(); !errors.Is(got, e1) {
		t.Fatalf("Err() = %v, want first trip %v", got, e1)
	}
}

func TestReasonFor(t *testing.T) {
	cases := []struct {
		err  error
		want StopReason
	}{
		{nil, ""},
		{context.Canceled, StopCancelled},
		{context.DeadlineExceeded, StopDeadline},
		{ErrMaxEvents, StopBudget},
		{ErrStalled, StopStalled},
		{errors.New("unrelated"), ""},
	}
	for _, c := range cases {
		if got := ReasonFor(c.err); got != c.want {
			t.Errorf("ReasonFor(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

func TestEnginePollStopsRun(t *testing.T) {
	e := NewEngine()
	intr := NewInterrupt()
	e.SetInterrupt(intr, 4)
	count := 0
	var step func()
	step = func() {
		count++
		if count == 10 {
			intr.Trip(context.Canceled)
		}
		e.Schedule(1, HandlerFunc(step))
	}
	e.Schedule(0, HandlerFunc(step))
	err := e.RunUntilQuiet(0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	// Trip at event 10 must be observed at the next poll boundary
	// (a multiple of the stride), not hundreds of events later.
	if count < 10 || count > 12 {
		t.Fatalf("ran %d events; want stop within one poll stride of the trip", count)
	}
}

func TestEnginePollDoesNotChangeResults(t *testing.T) {
	run := func(attach bool) (Ticks, uint64) {
		e := NewEngine()
		if attach {
			e.SetInterrupt(NewInterrupt(), 1)
		}
		n := 0
		var step func()
		step = func() {
			n++
			if n < 1000 {
				e.Schedule(3, HandlerFunc(step))
			}
		}
		e.Schedule(0, HandlerFunc(step))
		if err := e.RunUntilQuiet(0); err != nil {
			t.Fatal(err)
		}
		return e.Now(), e.Executed()
	}
	plainNow, plainN := run(false)
	pollNow, pollN := run(true)
	if plainNow != pollNow || plainN != pollN {
		t.Fatalf("poll perturbed the run: (%d,%d) vs (%d,%d)", plainNow, plainN, pollNow, pollN)
	}
}

func TestWatchContextImmediateCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	intr := NewInterrupt()
	stop := WatchContext(ctx, intr)
	defer stop()
	// Pre-cancelled contexts must trip synchronously: the first poll
	// observes the cancellation deterministically.
	if err := intr.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("immediate cancel not tripped synchronously: %v", err)
	}
}

func TestWatchContextAsyncCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	intr := NewInterrupt()
	stop := WatchContext(ctx, intr)
	defer stop()
	if intr.Err() != nil {
		t.Fatal("tripped before cancellation")
	}
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for intr.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := intr.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel not observed: %v", err)
	}
}

func TestWatchContextBackground(t *testing.T) {
	// Background has no Done channel; the watcher must be a no-op.
	stop := WatchContext(context.Background(), NewInterrupt())
	stop()
	stop() // idempotent
}

func TestWatchdogTripsOnSilence(t *testing.T) {
	intr := NewInterrupt()
	stop := StartWatchdog(intr, 10*time.Millisecond)
	defer stop()
	deadline := time.Now().Add(5 * time.Second)
	for intr.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := intr.Err(); !errors.Is(err, ErrStalled) {
		t.Fatalf("silent interrupt did not trip watchdog: %v", err)
	}
	if ReasonFor(intr.Err()) != StopStalled {
		t.Fatalf("watchdog error classifies as %q", ReasonFor(intr.Err()))
	}
}

func TestWatchdogSparedByPulses(t *testing.T) {
	intr := NewInterrupt()
	stop := StartWatchdog(intr, 50*time.Millisecond)
	defer stop()
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		intr.Pulse()
		time.Sleep(5 * time.Millisecond)
	}
	if err := intr.Err(); err != nil {
		t.Fatalf("watchdog tripped despite steady pulses: %v", err)
	}
}

func TestWatchdogDisabled(t *testing.T) {
	stop := StartWatchdog(NewInterrupt(), 0)
	stop()
}

func TestClusterBarrierObservesInterrupt(t *testing.T) {
	// Two engines, tiny event counts — well under any poll stride — so
	// only the barrier check can observe the trip.
	engines := []*Engine{NewEngine(), NewEngine()}
	c, err := NewCluster(engines, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	intr := NewInterrupt()
	c.SetInterrupt(intr, 0)
	rounds := 0
	exchange := func() (int, error) {
		rounds++
		if rounds == 3 {
			intr.Trip(context.Canceled)
		}
		if rounds < 100 {
			for _, e := range engines {
				e.Schedule(5, HandlerFunc(func() {}))
			}
			return len(engines), nil
		}
		return 0, nil
	}
	err = c.Run(0, exchange)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cluster Run = %v (rounds=%d), want context.Canceled", err, rounds)
	}
	if rounds > 4 {
		t.Fatalf("interrupt observed only after %d rounds", rounds)
	}
}
